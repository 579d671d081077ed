#include "opt/parallel.h"

#include <algorithm>
#include <optional>

namespace nalq::opt {

namespace {

using nal::AlgebraOp;
using nal::OpKind;

bool IsJoinFamily(OpKind k) {
  return k == OpKind::kCross || k == OpKind::kJoin ||
         k == OpKind::kSemiJoin || k == OpKind::kAntiJoin ||
         k == OpKind::kOuterJoin || k == OpKind::kGroupBinary;
}

/// Build-side rows for every breaker that can grace-partition at run time
/// (nal/spool.h): the right operand of the join family, the input of unary
/// Γ. Keyed by the breaker node itself — the key the spill cursors pass to
/// SpoolContext::RowHint.
void CollectBreakerRows(const AlgebraOp& op,
                        const std::map<const AlgebraOp*, OpEstimate>& rec,
                        std::map<const AlgebraOp*, double>* out) {
  const AlgebraOp* side = nullptr;
  if (IsJoinFamily(op.kind) && op.children.size() >= 2) {
    side = op.child(1).get();
  } else if (op.kind == OpKind::kGroupUnary && !op.children.empty()) {
    side = op.child(0).get();
  }
  if (side != nullptr) {
    auto it = rec.find(side);
    if (it != rec.end() && it->second.rows > 0) {
      (*out)[&op] = it->second.rows;
    }
  }
  for (const nal::AlgebraPtr& c : op.children) {
    CollectBreakerRows(*c, rec, out);
  }
}

double RowsOf(const std::map<const AlgebraOp*, OpEstimate>& rec,
              const AlgebraOp* op) {
  auto it = rec.find(op);
  return it == rec.end() ? 0.0 : it->second.rows;
}

double CpuOf(const std::map<const AlgebraOp*, OpEstimate>& rec,
             const AlgebraOp* op) {
  auto it = rec.find(op);
  return it == rec.end() ? 0.0 : it->second.cpu;
}

}  // namespace

ParallelPlacement ChooseParallelPlacement(const xml::Store& store,
                                          const nal::AlgebraOp& root,
                                          unsigned max_threads,
                                          uint64_t memory_budget_bytes) {
  CostModel model(memory_budget_bytes);
  CardinalityEstimator estimator(store, model);
  std::map<const AlgebraOp*, OpEstimate> rec;
  estimator.set_node_recorder(&rec);
  PlanEstimate total = estimator.EstimatePlan(root);

  ParallelPlacement out;
  out.est_serial_cost = total.total_cost();
  out.est_parallel_cost = out.est_serial_cost;
  CollectBreakerRows(root, rec, &out.breaker_build_rows);

  unsigned max_dop =
      nal::ResolveParallelThreads(max_threads, memory_budget_bytes);
  if (max_dop <= 1) return out;  // serial by construction

  std::optional<nal::PartitionPoint> cut = nal::FindPartitionPoint(root);
  if (!cut.has_value()) return out;

  const CostConstants& k = model.constants();
  double parallel_cpu =
      std::max(CpuOf(rec, cut->top) - CpuOf(rec, cut->source), 0.0);
  double serial_cpu = total.cpu_cost - parallel_cpu;
  double exchange = RowsOf(rec, cut->source) * k.exchange_tuple;
  for (unsigned dop = 2; dop <= max_dop; ++dop) {
    double cost = serial_cpu + parallel_cpu / dop + exchange +
                  dop * k.worker_setup + total.io_cost;
    if (cost < out.est_parallel_cost) {
      out.est_parallel_cost = cost;
      out.dop = dop;
    }
  }
  return out;
}

}  // namespace nalq::opt
