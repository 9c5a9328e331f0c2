#include "script/interp.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "script/parser.hpp"

namespace ipa::script {
namespace {

/// How a statement completed. Anything but kNormal unwinds the enclosing
/// blocks until a loop (kBreak, kContinue) or a function call (kReturn)
/// consumes it; the parser rejects the statements that would escape those.
enum class Flow { kNormal, kReturn, kBreak, kContinue };

/// Runtime errors (rare) unwind to the load()/call() boundary.
struct ScriptError {
  Status status;
};

[[noreturn]] void fail(StatusCode code, const std::string& msg, int line) {
  throw ScriptError{Status(code, msg + " (line " + std::to_string(line) + ")")};
}

/// Lexical scope: a chain of variable maps.
class Scope {
 public:
  explicit Scope(Scope* parent = nullptr) : parent_(parent) {}

  void declare(const std::string& name, Value value) { vars_[name] = std::move(value); }

  Value* find(const std::string& name) {
    for (Scope* scope = this; scope != nullptr; scope = scope->parent_) {
      const auto it = scope->vars_.find(name);
      if (it != scope->vars_.end()) return &it->second;
    }
    return nullptr;
  }

 private:
  Scope* parent_;
  std::map<std::string, Value> vars_;
};

}  // namespace

struct Interp::Impl {
  static constexpr int kMaxCallDepth = 256;

  InterpOptions options;
  int call_depth = 0;
  Program program;
  std::map<std::string, const FunctionDecl*, std::less<>> functions;
  Scope globals;  // outermost scope
  std::vector<std::string> print_output;
  std::uint64_t steps = 0;
  Value return_value;  // set by `return`, taken by the invoke it completes

  void tick(int line) {
    if (++steps > options.max_steps_per_call) {
      fail(StatusCode::kResourceExhausted, "script exceeded its step budget", line);
    }
  }

  // --- expression evaluation ------------------------------------------------

  Value eval(const Expr& expr, Scope& scope) {
    tick(expr.line);
    switch (expr.kind) {
      case Expr::Kind::kNumber: return Value(expr.number);
      case Expr::Kind::kString: return Value(expr.text);
      case Expr::Kind::kBool: return Value(expr.flag);
      case Expr::Kind::kNil: return Value::nil();
      case Expr::Kind::kVar: {
        if (Value* slot = scope.find(expr.text)) return *slot;
        const auto fn = functions.find(expr.text);
        if (fn != functions.end()) return Value(fn->second);
        fail(StatusCode::kNotFound, "undefined variable '" + expr.text + "'", expr.line);
      }
      case Expr::Kind::kList: {
        List items;
        items.reserve(expr.args.size());
        for (const ExprPtr& element : expr.args) items.push_back(eval(*element, scope));
        return Value::list(std::move(items));
      }
      case Expr::Kind::kUnary: {
        Value operand = eval(*expr.lhs, scope);
        if (expr.op == "-") {
          if (!operand.is_number()) {
            fail(StatusCode::kInvalidArgument,
                 "unary '-' needs a number, got " + std::string(operand.type_name()), expr.line);
          }
          return Value(-operand.number());
        }
        return Value(!operand.truthy());
      }
      case Expr::Kind::kLogical: {
        Value lhs = eval(*expr.lhs, scope);
        if (expr.op == "&&") {
          if (!lhs.truthy()) return Value(false);
          return Value(eval(*expr.rhs, scope).truthy());
        }
        if (lhs.truthy()) return Value(true);
        return Value(eval(*expr.rhs, scope).truthy());
      }
      case Expr::Kind::kBinary: return eval_binary(expr, scope);
      case Expr::Kind::kCall: {
        Value callee = eval(*expr.lhs, scope);
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const ExprPtr& arg : expr.args) args.push_back(eval(*arg, scope));
        return invoke(callee, args, expr.line);
      }
      case Expr::Kind::kMethod: {
        Value receiver = eval(*expr.lhs, scope);
        if (!receiver.is_object()) {
          fail(StatusCode::kInvalidArgument,
               "cannot call method '" + expr.text + "' on " + std::string(receiver.type_name()),
               expr.line);
        }
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const ExprPtr& arg : expr.args) args.push_back(eval(*arg, scope));
        auto result = receiver.object()->call_method(expr.text, args);
        if (!result.is_ok()) {
          fail(result.status().code(), result.status().message(), expr.line);
        }
        return std::move(*result);
      }
      case Expr::Kind::kIndex: {
        Value container = eval(*expr.lhs, scope);
        Value index = eval(*expr.rhs, scope);
        if (!index.is_number()) {
          fail(StatusCode::kInvalidArgument, "index must be a number", expr.line);
        }
        const auto i = static_cast<std::int64_t>(index.number());
        if (container.is_list()) {
          const List& items = *container.list_ptr();
          if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
            fail(StatusCode::kOutOfRange,
                 strings::format("list index %lld out of range (size %zu)",
                                 static_cast<long long>(i), items.size()),
                 expr.line);
          }
          return items[static_cast<std::size_t>(i)];
        }
        if (container.is_string()) {
          const std::string& s = container.string();
          if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
            fail(StatusCode::kOutOfRange, "string index out of range", expr.line);
          }
          return Value(std::string(1, s[static_cast<std::size_t>(i)]));
        }
        fail(StatusCode::kInvalidArgument,
             "cannot index " + std::string(container.type_name()), expr.line);
      }
    }
    fail(StatusCode::kInternal, "unhandled expression kind", expr.line);
  }

  Value eval_binary(const Expr& expr, Scope& scope) {
    Value lhs = eval(*expr.lhs, scope);
    Value rhs = eval(*expr.rhs, scope);
    const std::string& op = expr.op;

    if (op == "==") return Value(lhs == rhs);
    if (op == "!=") return Value(!(lhs == rhs));

    if (op == "+") {
      if (lhs.is_number() && rhs.is_number()) return Value(lhs.number() + rhs.number());
      if (lhs.is_string() || rhs.is_string()) {
        return Value(lhs.to_display() + rhs.to_display());
      }
      if (lhs.is_list() && rhs.is_list()) {
        List combined = *lhs.list_ptr();
        combined.insert(combined.end(), rhs.list_ptr()->begin(), rhs.list_ptr()->end());
        return Value::list(std::move(combined));
      }
      fail(StatusCode::kInvalidArgument,
           "cannot add " + std::string(lhs.type_name()) + " and " +
               std::string(rhs.type_name()),
           expr.line);
    }

    if (op == "<" || op == "<=" || op == ">" || op == ">=") {
      int cmp;
      if (lhs.is_number() && rhs.is_number()) {
        cmp = lhs.number() < rhs.number() ? -1 : (lhs.number() > rhs.number() ? 1 : 0);
      } else if (lhs.is_string() && rhs.is_string()) {
        const int c = lhs.string().compare(rhs.string());
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        fail(StatusCode::kInvalidArgument,
             "cannot compare " + std::string(lhs.type_name()) + " with " +
                 std::string(rhs.type_name()),
             expr.line);
      }
      if (op == "<") return Value(cmp < 0);
      if (op == "<=") return Value(cmp <= 0);
      if (op == ">") return Value(cmp > 0);
      return Value(cmp >= 0);
    }

    // Remaining operators are numeric-only.
    if (!lhs.is_number() || !rhs.is_number()) {
      fail(StatusCode::kInvalidArgument,
           "operator '" + op + "' needs numbers, got " + std::string(lhs.type_name()) + " and " +
               std::string(rhs.type_name()),
           expr.line);
    }
    const double a = lhs.number();
    const double b = rhs.number();
    if (op == "-") return Value(a - b);
    if (op == "*") return Value(a * b);
    if (op == "/") {
      if (b == 0.0) fail(StatusCode::kInvalidArgument, "division by zero", expr.line);
      return Value(a / b);
    }
    if (op == "%") {
      if (b == 0.0) fail(StatusCode::kInvalidArgument, "modulo by zero", expr.line);
      return Value(std::fmod(a, b));
    }
    fail(StatusCode::kInternal, "unknown operator '" + op + "'", expr.line);
  }

  Value invoke(const Value& callee, std::vector<Value>& args, int line) {
    if (std::holds_alternative<std::shared_ptr<NativeFn>>(callee.rep)) {
      auto result = (*std::get<std::shared_ptr<NativeFn>>(callee.rep))(args);
      if (!result.is_ok()) fail(result.status().code(), result.status().message(), line);
      return std::move(*result);
    }
    if (std::holds_alternative<const FunctionDecl*>(callee.rep)) {
      const FunctionDecl* fn = std::get<const FunctionDecl*>(callee.rep);
      if (call_depth >= kMaxCallDepth) {
        fail(StatusCode::kResourceExhausted,
             "recursion too deep (limit " + std::to_string(kMaxCallDepth) + ")", line);
      }
      if (args.size() != fn->params.size()) {
        fail(StatusCode::kInvalidArgument,
             strings::format("function '%s' expects %zu argument(s), got %zu", fn->name.c_str(),
                             fn->params.size(), args.size()),
             line);
      }
      Scope local(&globals);
      for (std::size_t i = 0; i < args.size(); ++i) {
        local.declare(fn->params[i], std::move(args[i]));
      }
      ++call_depth;
      // RAII depth guard: exec_block may throw ScriptError.
      struct DepthGuard {
        int& depth;
        ~DepthGuard() { --depth; }
      } guard{call_depth};
      if (exec_block(fn->body, local) == Flow::kReturn) return std::move(return_value);
      return Value::nil();
    }
    fail(StatusCode::kInvalidArgument,
         "value of type " + std::string(callee.type_name()) + " is not callable", line);
  }

  // --- statement execution ---------------------------------------------------

  Flow exec_block(const std::vector<StmtPtr>& body, Scope& scope) {
    for (const StmtPtr& stmt : body) {
      const Flow flow = exec(*stmt, scope);
      if (flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
  }

  Flow exec(const Stmt& stmt, Scope& scope) {
    tick(stmt.line);
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        eval(*stmt.expr, scope);
        return Flow::kNormal;
      case Stmt::Kind::kLet:
        scope.declare(stmt.name, eval(*stmt.expr, scope));
        return Flow::kNormal;
      case Stmt::Kind::kAssign: {
        Value value = eval(*stmt.expr, scope);
        Value* slot = nullptr;
        if (stmt.target->kind == Expr::Kind::kVar) {
          slot = scope.find(stmt.target->text);
          if (slot == nullptr) {
            fail(StatusCode::kNotFound,
                 "assignment to undeclared variable '" + stmt.target->text + "' (use 'let')",
                 stmt.line);
          }
        } else {  // kIndex: lhs[idx] = value
          Value container = eval(*stmt.target->lhs, scope);
          Value index = eval(*stmt.target->rhs, scope);
          if (!container.is_list() || !index.is_number()) {
            fail(StatusCode::kInvalidArgument, "indexed assignment needs list[number]",
                 stmt.line);
          }
          List& items = *container.list_ptr();
          const auto i = static_cast<std::int64_t>(index.number());
          if (i < 0 || static_cast<std::size_t>(i) >= items.size()) {
            fail(StatusCode::kOutOfRange, "list index out of range in assignment", stmt.line);
          }
          slot = &items[static_cast<std::size_t>(i)];
        }
        if (stmt.op == "=") {
          *slot = std::move(value);
        } else {
          if (!slot->is_number() || !value.is_number()) {
            fail(StatusCode::kInvalidArgument, "'" + stmt.op + "' needs numbers", stmt.line);
          }
          *slot = Value(stmt.op == "+=" ? slot->number() + value.number()
                                        : slot->number() - value.number());
        }
        return Flow::kNormal;
      }
      case Stmt::Kind::kIf: {
        if (eval(*stmt.cond, scope).truthy()) {
          Scope inner(&scope);
          return exec_block(stmt.body, inner);
        }
        if (!stmt.else_body.empty()) {
          Scope inner(&scope);
          return exec_block(stmt.else_body, inner);
        }
        return Flow::kNormal;
      }
      case Stmt::Kind::kWhile: {
        while (eval(*stmt.cond, scope).truthy()) {
          Scope inner(&scope);
          const Flow flow = exec_block(stmt.body, inner);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn) return flow;
        }
        return Flow::kNormal;
      }
      case Stmt::Kind::kFor: {
        Scope header(&scope);
        if (stmt.init) exec(*stmt.init, header);
        while (stmt.cond == nullptr || eval(*stmt.cond, header).truthy()) {
          Scope inner(&header);
          const Flow flow = exec_block(stmt.body, inner);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn) return flow;
          if (stmt.step) exec(*stmt.step, header);  // kContinue still runs the step
        }
        return Flow::kNormal;
      }
      case Stmt::Kind::kReturn:
        return_value = stmt.expr ? eval(*stmt.expr, scope) : Value::nil();
        return Flow::kReturn;
      case Stmt::Kind::kBreak:
        return Flow::kBreak;
      case Stmt::Kind::kContinue:
        return Flow::kContinue;
      case Stmt::Kind::kBlock: {
        Scope inner(&scope);
        return exec_block(stmt.body, inner);
      }
    }
    fail(StatusCode::kInternal, "unhandled statement kind", stmt.line);
  }
};

Interp::Interp(InterpOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  install_stdlib(*this);
}

Interp::~Interp() = default;
Interp::Interp(Interp&&) noexcept = default;
Interp& Interp::operator=(Interp&&) noexcept = default;

Status Interp::load(std::string_view source) {
  auto program = parse(source);
  IPA_RETURN_IF_ERROR(program.status());

  // Replace the program; function table rebuilt from the new program.
  impl_->program = std::move(*program);
  impl_->functions.clear();
  for (const FunctionDecl& fn : impl_->program.functions) {
    impl_->functions[fn.name] = &fn;
  }

  impl_->steps = 0;
  try {
    impl_->exec_block(impl_->program.top_level, impl_->globals);
  } catch (ScriptError& error) {
    return error.status;
  }
  return Status::ok();
}

bool Interp::has_function(std::string_view name) const {
  return impl_->functions.find(name) != impl_->functions.end();
}

std::vector<std::string> Interp::function_names() const {
  std::vector<std::string> names;
  names.reserve(impl_->functions.size());
  for (const auto& [name, _] : impl_->functions) names.push_back(name);
  return names;
}

Result<Value> Interp::call(std::string_view name, std::vector<Value> args) {
  const auto it = impl_->functions.find(name);
  if (it == impl_->functions.end()) {
    return not_found("script: no function '" + std::string(name) + "'");
  }
  impl_->steps = 0;
  try {
    return impl_->invoke(Value(it->second), args, it->second->line);
  } catch (ScriptError& error) {
    return error.status;
  }
}

void Interp::set_global(std::string name, Value value) {
  impl_->globals.declare(name, std::move(value));
}

Result<Value> Interp::global(std::string_view name) const {
  if (Value* slot = impl_->globals.find(std::string(name))) return *slot;
  return not_found("script: no global '" + std::string(name) + "'");
}

void Interp::register_native(std::string name, NativeFn fn) {
  impl_->globals.declare(name, Value(std::make_shared<NativeFn>(std::move(fn))));
}

std::vector<std::string>& Interp::output() { return impl_->print_output; }

}  // namespace ipa::script
