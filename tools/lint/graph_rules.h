#ifndef DODUO_TOOLS_LINT_GRAPH_RULES_H_
#define DODUO_TOOLS_LINT_GRAPH_RULES_H_

#include <vector>

#include "lint/project_model.h"

// Whole-program passes over the ProjectModel (DESIGN §16). Each pass
// checks a property no single-file scan can see:
//
//   layering         the module DAG (util → text → table → … → serve) has
//                    no upward or sideways includes
//   include-cycle    the file-level include graph is acyclic
//   frame-symmetry   every serve FrameType id is dense, Request/Response
//                    paired, wired into both client and server, referenced
//                    by tests, and its payload codecs come in
//                    Encode/Decode pairs with fuzz coverage
//   metrics-registry every metric name literal passed to
//                    GetCounter/GetHistogram exists in the central
//                    util/metric_names.h registry (and every registered
//                    name is used somewhere)
//   hot-path-alloc   no allocation or growing-container call in any
//                    function reachable from the encoder forward path
//                    (mechanizes the allocs_per_iter=0 contract)
//
// The inputs each pass reads (file paths, the layer DAG, hot-path roots)
// are named constants in graph_rules.cc: they describe this tree, and the
// tests build their synthetic repositories on the same paths.

namespace doduo::lint {

inline constexpr char kRuleLayering[] = "layering";
inline constexpr char kRuleIncludeCycle[] = "include-cycle";
inline constexpr char kRuleFrameSymmetry[] = "frame-symmetry";
inline constexpr char kRuleMetricsRegistry[] = "metrics-registry";
inline constexpr char kRuleHotPathAlloc[] = "hot-path-alloc";

/// Runs every whole-program pass. Violations honor the per-line
/// `// NOLINT(rule-id)` escapes of the file they attach to, and are
/// deduplicated on (file, line, rule) and sorted.
std::vector<Violation> RunGraphRules(const ProjectModel& model);

}  // namespace doduo::lint

#endif  // DODUO_TOOLS_LINT_GRAPH_RULES_H_
