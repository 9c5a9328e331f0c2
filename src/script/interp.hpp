// PawScript tree-walking interpreter.
//
// Design notes:
//  - No exceptions escape: the public API returns Status/Result.
//  - Control flow takes no exceptions: each statement returns a completion
//    value (normal, return, break, continue) that loops and calls consume,
//    so a `return` costs no more than an assignment. The parser rejects a
//    `break`/`continue` outside a loop and a `return` outside a function,
//    so no completion can leak past the construct that owns it. Runtime
//    errors are rare and still throw, caught at the load()/call() boundary.
//  - A step budget bounds runaway scripts: the engine is interactive and a
//    user's accidental `while(true)` must not wedge a worker node.
//  - print() output is captured and retrievable, so engine logs can relay
//    script output back to the client.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "script/ast.hpp"
#include "script/value.hpp"

namespace ipa::script {

struct InterpOptions {
  /// Abort evaluation after this many statement/expression steps per call()
  /// (guards interactive engines against runaway user loops).
  std::uint64_t max_steps_per_call = 100'000'000;
};

class Interp {
 public:
  explicit Interp(InterpOptions options = {});
  ~Interp();
  Interp(Interp&&) noexcept;
  Interp& operator=(Interp&&) noexcept;

  /// Parse a script, register its functions and run its top-level
  /// statements. May be called again to replace the loaded program (the
  /// dynamic-reload path); globals persist across loads.
  Status load(std::string_view source);

  bool has_function(std::string_view name) const;
  std::vector<std::string> function_names() const;

  /// Invoke a script function by name.
  Result<Value> call(std::string_view name, std::vector<Value> args);

  /// Globals visible to scripts.
  void set_global(std::string name, Value value);
  Result<Value> global(std::string_view name) const;

  /// Host-provided functions callable from scripts.
  void register_native(std::string name, NativeFn fn);

  /// Captured print() lines (cleared by the caller as desired).
  std::vector<std::string>& output();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Install the standard library (math, lists, strings, print) on an
/// interpreter. Interp's constructor calls this; exposed for tests.
void install_stdlib(Interp& interp);

}  // namespace ipa::script
