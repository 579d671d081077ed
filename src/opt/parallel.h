// Cost-driven parallel placement: at what degree of parallelism a plan
// runs its exchange.
//
// The exchange (nal/exchange.h) has one cut, the per-tuple run that
// nal::FindPartitionPoint finds above the expanding producer; it depends
// only on the plan. This chooser prices that cut's width with the
// cardinality estimates (opt/cardinality.h) and the cost constants
// (opt/cost_constants.h):
//
//   cost(dop) = serial_cpu + parallel_cpu / dop
//             + source_rows × exchange_tuple
//             + dop × worker_setup + spill_io
//
// where parallel_cpu is the estimated CPU between the source and the cut's
// top (the per-tuple work the workers share), and serial_cpu is everything
// else: the source subtree and the plan above the exchange, every pipeline
// breaker included. dop 1 means serial and costs the plan's serial cost;
// the cheapest dop wins, so small inputs that cannot amortize worker_setup
// stay serial. The memory budget clamps the widest dop
// (nal::ResolveParallelThreads) and prices spill I/O; it does not move the
// cut.
//
// The same estimation walk yields per-breaker build-side row estimates,
// handed to the spool layer (SpoolContext::set_row_hints) so grace
// partition counts are sized from expected build volume instead of the
// static budget/32KB rule.
#ifndef NALQ_OPT_PARALLEL_H_
#define NALQ_OPT_PARALLEL_H_

#include <cstdint>
#include <map>

#include "nal/exchange.h"
#include "opt/cardinality.h"

namespace nalq::opt {

/// The chooser's output. `dop` 1 means serial streaming beats every
/// parallel width (or the plan has no cut); otherwise run the exchange with
/// ParallelOptions::threads = dop.
struct ParallelPlacement {
  unsigned dop = 1;
  double est_serial_cost = 0;    ///< whole-plan serial cost (comparison base)
  double est_parallel_cost = 0;  ///< cost of the chosen placement at `dop`
  /// Estimated build/input rows per breaker node, for
  /// SpoolContext::set_row_hints (grace-partition admission).
  std::map<const nal::AlgebraOp*, double> breaker_build_rows;
};

/// Prices the cut of `root` under `memory_budget_bytes` (0 = unlimited) at
/// every dop up to ResolveParallelThreads(max_threads, budget). Never
/// throws on odd plans — a plan without a cut simply yields dop 1.
ParallelPlacement ChooseParallelPlacement(const xml::Store& store,
                                          const nal::AlgebraOp& root,
                                          unsigned max_threads,
                                          uint64_t memory_budget_bytes);

}  // namespace nalq::opt

#endif  // NALQ_OPT_PARALLEL_H_
