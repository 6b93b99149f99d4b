#include "algebricks/compiler.h"

#include <algorithm>
#include <array>

namespace asterix::algebricks {

namespace {

enum class CmpOp { kEq, kNeq, kLt, kLe, kGt, kGe };

bool CmpOpFromName(const std::string& fn, CmpOp* op) {
  if (fn == "eq") *op = CmpOp::kEq;
  else if (fn == "neq") *op = CmpOp::kNeq;
  else if (fn == "lt") *op = CmpOp::kLt;
  else if (fn == "le") *op = CmpOp::kLe;
  else if (fn == "gt") *op = CmpOp::kGt;
  else if (fn == "ge") *op = CmpOp::kGe;
  else return false;
  return true;
}

/// Mirror of the argument swap: `const OP var` becomes `var FLIP(OP) const`.
CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // eq/neq are symmetric
  }
}

inline bool PassesCmp(int cmp, CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNeq: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

Status TupleTooNarrow() {
  return Status::Internal("tuple too narrow for variable");
}

/// var OP const — the dominant filter shape.
hyracks::BatchPredicate VarConstCmp(size_t pos, adm::Value c, CmpOp op) {
  // An unknown (null/missing) constant never compares true under SQL++
  // semantics, so the whole mask is zero regardless of the tuples.
  const bool never = c.is_unknown();
  return [pos, c = std::move(c), op, never](const hyracks::Batch& b,
                                            uint8_t* keep) -> Status {
    for (size_t i = 0; i < b.size(); i++) {
      const hyracks::Tuple& t = b[i];
      if (pos >= t.arity()) return TupleTooNarrow();
      const adm::Value& v = t.at(pos);
      keep[i] = !never && !v.is_unknown() && PassesCmp(v.Compare(c), op);
    }
    return Status::OK();
  };
}

/// var OP var (e.g. join residuals pushed into a select).
hyracks::BatchPredicate VarVarCmp(size_t lpos, size_t rpos, CmpOp op) {
  return [lpos, rpos, op](const hyracks::Batch& b, uint8_t* keep) -> Status {
    for (size_t i = 0; i < b.size(); i++) {
      const hyracks::Tuple& t = b[i];
      if (lpos >= t.arity() || rpos >= t.arity()) return TupleTooNarrow();
      const adm::Value& l = t.at(lpos);
      const adm::Value& r = t.at(rpos);
      keep[i] = !l.is_unknown() && !r.is_unknown() &&
                PassesCmp(l.Compare(r), op);
    }
    return Status::OK();
  };
}

/// field-access(<base>, "<name>") with a constant name — the shape every
/// `x.name` path step compiles to.
bool IsConstFieldAccess(const Expr& e) {
  return e.kind == ExprKind::kCall && e.fn == "field-access" &&
         e.args.size() == 2 && e.args[1]->kind == ExprKind::kConstant &&
         e.args[1]->constant.is_string();
}

/// Follow `path` inside `base`, each step with the "field-access" builtin's
/// semantics: NULL stays NULL, a non-object (MISSING included) yields
/// MISSING.
const adm::Value& WalkPath(const adm::Value& base,
                           const std::vector<std::string>& path) {
  static const adm::Value kNull = adm::Value::Null();
  static const adm::Value kMissing;
  const adm::Value* v = &base;
  for (const auto& name : path) {
    if (v->is_object()) {
      v = &v->GetField(name);
    } else {
      return v->is_null() ? kNull : kMissing;
    }
  }
  return *v;
}

/// A path of constant-name field accesses, x.a.b...: the steps are taken
/// by reference inside the base value, so neither the record nor the
/// intermediate objects nor the names are copied — only the final field.
/// When the root is a variable, the base is the tuple slot itself.
Result<hyracks::TupleEval> CompileFieldPath(const ExprPtr& expr,
                                            const VarPositions& positions,
                                            const FunctionRegistry& registry) {
  std::vector<std::string> path;  // outermost step first
  ExprPtr root = expr;
  while (IsConstFieldAccess(*root)) {
    path.push_back(root->args[1]->constant.AsString());
    root = root->args[0];
  }
  std::reverse(path.begin(), path.end());
  if (root->kind == ExprKind::kVariable) {
    auto it = positions.find(root->var);
    if (it == positions.end()) {
      return Status::Internal("unbound variable $" +
                              std::to_string(root->var) +
                              " during compilation");
    }
    size_t pos = it->second;
    return hyracks::TupleEval(
        [pos, path = std::move(path)](
            const hyracks::Tuple& t) -> Result<adm::Value> {
          if (pos >= t.arity()) return TupleTooNarrow();
          return WalkPath(t.at(pos), path);
        });
  }
  // The root is computed (a call or constant): evaluate it once, then walk.
  AX_ASSIGN_OR_RETURN(auto root_eval, CompileExpr(root, positions, registry));
  return hyracks::TupleEval(
      [root_eval = std::move(root_eval), path = std::move(path)](
          const hyracks::Tuple& t) -> Result<adm::Value> {
        AX_ASSIGN_OR_RETURN(adm::Value base, root_eval(t));
        return WalkPath(base, path);
      });
}

/// A call of fixed width N: the arguments land in a buffer on the
/// evaluator's own stack, so evaluating the call allocates nothing for them.
template <size_t N>
hyracks::TupleEval CallWithInlineArgs(const ScalarFn* fn,
                                      std::vector<hyracks::TupleEval> evals) {
  std::array<hyracks::TupleEval, N> e;
  std::move(evals.begin(), evals.end(), e.begin());
  return [fn, e = std::move(e)](const hyracks::Tuple& t) -> Result<adm::Value> {
    std::array<adm::Value, N> args;
    for (size_t i = 0; i < N; i++) {
      AX_ASSIGN_OR_RETURN(args[i], e[i](t));
    }
    return (*fn)(Args(args.data(), N));
  };
}

}  // namespace

hyracks::BatchPredicate TryCompileBatchPredicate(const ExprPtr& expr,
                                                 const VarPositions& positions) {
  if (expr == nullptr || expr->kind != ExprKind::kCall) return nullptr;

  // and(p1, ..., pn): conjoin child masks. Correct under select semantics
  // because the 3-valued AND is boolean true iff every conjunct is.
  if (expr->fn == "and") {
    std::vector<hyracks::BatchPredicate> parts;
    parts.reserve(expr->args.size());
    for (const auto& a : expr->args) {
      hyracks::BatchPredicate p = TryCompileBatchPredicate(a, positions);
      if (!p) return nullptr;  // one opaque conjunct spoils the whole AND
      parts.push_back(std::move(p));
    }
    if (parts.empty()) return nullptr;
    if (parts.size() == 1) return std::move(parts[0]);
    return [parts = std::move(parts),
            tmp = std::vector<uint8_t>()](const hyracks::Batch& b,
                                          uint8_t* keep) mutable -> Status {
      AX_RETURN_NOT_OK(parts[0](b, keep));
      if (tmp.size() < b.size()) tmp.resize(hyracks::kFrameTuples);
      for (size_t p = 1; p < parts.size(); p++) {
        AX_RETURN_NOT_OK(parts[p](b, tmp.data()));
        for (size_t i = 0; i < b.size(); i++) keep[i] &= tmp[i];
      }
      return Status::OK();
    };
  }

  CmpOp op;
  if (!CmpOpFromName(expr->fn, &op) || expr->args.size() != 2) return nullptr;
  const ExprPtr& lhs = expr->args[0];
  const ExprPtr& rhs = expr->args[1];
  auto pos_of = [&positions](const ExprPtr& e, size_t* pos) {
    if (e->kind != ExprKind::kVariable) return false;
    auto it = positions.find(e->var);
    if (it == positions.end()) return false;
    *pos = it->second;
    return true;
  };
  size_t lpos, rpos;
  if (pos_of(lhs, &lpos) && rhs->kind == ExprKind::kConstant) {
    return VarConstCmp(lpos, rhs->constant, op);
  }
  if (lhs->kind == ExprKind::kConstant && pos_of(rhs, &rpos)) {
    return VarConstCmp(rpos, lhs->constant, FlipCmp(op));
  }
  if (pos_of(lhs, &lpos) && pos_of(rhs, &rpos)) {
    return VarVarCmp(lpos, rpos, op);
  }
  return nullptr;
}

Result<hyracks::TupleEval> CompileExpr(const ExprPtr& expr,
                                       const VarPositions& positions,
                                       const FunctionRegistry& registry) {
  switch (expr->kind) {
    case ExprKind::kConstant: {
      adm::Value v = expr->constant;
      return hyracks::TupleEval(
          [v](const hyracks::Tuple&) -> Result<adm::Value> { return v; });
    }
    case ExprKind::kVariable: {
      auto it = positions.find(expr->var);
      if (it == positions.end()) {
        return Status::Internal("unbound variable $" +
                                std::to_string(expr->var) +
                                " during compilation");
      }
      size_t pos = it->second;
      return hyracks::TupleEval(
          [pos](const hyracks::Tuple& t) -> Result<adm::Value> {
            if (pos >= t.arity()) {
              return Status::Internal("tuple too narrow for variable");
            }
            return t.at(pos);
          });
    }
    case ExprKind::kQuantified: {
      // Correlated quantifier: compile the collection over the outer
      // layout, and the predicate over the outer layout extended with the
      // bound variable appended as the last field.
      AX_ASSIGN_OR_RETURN(auto coll_eval,
                          CompileExpr(expr->args[0], positions, registry));
      VarPositions inner = positions;
      size_t bound_pos = positions.size();
      inner[expr->bound_var] = bound_pos;
      AX_ASSIGN_OR_RETURN(auto pred_eval,
                          CompileExpr(expr->args[1], inner, registry));
      bool want_some = expr->quantifier_some;
      return hyracks::TupleEval(
          [coll_eval, pred_eval, want_some,
           bound_pos](const hyracks::Tuple& t) -> Result<adm::Value> {
            AX_ASSIGN_OR_RETURN(adm::Value coll, coll_eval(t));
            if (coll.is_unknown()) return adm::Value::Null();
            if (!coll.is_collection()) return adm::Value::Null();
            hyracks::Tuple extended = t;
            if (extended.fields.size() < bound_pos + 1) {
              extended.fields.resize(bound_pos + 1);
            }
            for (const auto& item : coll.items()) {
              extended.fields[bound_pos] = item;
              AX_ASSIGN_OR_RETURN(adm::Value pass, pred_eval(extended));
              bool truthy = pass.is_boolean() && pass.AsBool();
              if (want_some && truthy) return adm::Value::Boolean(true);
              if (!want_some && !truthy) return adm::Value::Boolean(false);
            }
            return adm::Value::Boolean(!want_some);
          });
    }
    case ExprKind::kCall: {
      AX_ASSIGN_OR_RETURN(const FunctionRegistry::Entry* entry,
                          registry.Lookup(expr->fn));
      if (!entry->arity.Accepts(expr->args.size())) {
        return Status::InvalidArgument(
            "function " + expr->fn + " expects " + entry->arity.ToString() +
            " argument(s), got " + std::to_string(expr->args.size()));
      }
      if (IsConstFieldAccess(*expr)) {
        return CompileFieldPath(expr, positions, registry);
      }
      std::vector<hyracks::TupleEval> arg_evals;
      arg_evals.reserve(expr->args.size());
      for (const auto& a : expr->args) {
        AX_ASSIGN_OR_RETURN(auto e, CompileExpr(a, positions, registry));
        arg_evals.push_back(std::move(e));
      }
      const ScalarFn* fn = &entry->fn;
      switch (arg_evals.size()) {
        case 0: return CallWithInlineArgs<0>(fn, std::move(arg_evals));
        case 1: return CallWithInlineArgs<1>(fn, std::move(arg_evals));
        case 2: return CallWithInlineArgs<2>(fn, std::move(arg_evals));
        case 3: return CallWithInlineArgs<3>(fn, std::move(arg_evals));
        case 4: return CallWithInlineArgs<4>(fn, std::move(arg_evals));
        default: break;
      }
      // Wider calls (record and list constructors) are rare: heap buffer.
      return hyracks::TupleEval(
          [fn, arg_evals = std::move(arg_evals)](
              const hyracks::Tuple& t) -> Result<adm::Value> {
            std::vector<adm::Value> args;
            args.reserve(arg_evals.size());
            for (const auto& e : arg_evals) {
              AX_ASSIGN_OR_RETURN(adm::Value v, e(t));
              args.push_back(std::move(v));
            }
            return (*fn)(args);
          });
    }
  }
  return Status::Internal("bad expression kind");
}

Result<adm::Value> EvaluateConst(const ExprPtr& expr,
                                 const FunctionRegistry& registry) {
  AX_ASSIGN_OR_RETURN(auto eval, CompileExpr(expr, {}, registry));
  hyracks::Tuple empty;
  return eval(empty);
}

}  // namespace asterix::algebricks
