// srm-lint — repo-specific static analysis that generic tools cannot
// express. The analyzer runs three pass families over a single in-memory
// snapshot of the tree (see scan.hpp):
//
// 1. Include-graph pass (include_graph.hpp): every quoted #include is
//    resolved, the module graph is built, and it is checked against the
//    layer DAG declared in tools/srm-lint/layers.txt. Back-edges,
//    same-layer includes and include cycles are build-breaking — the
//    layering is what keeps the subsystems (serve cache, SIMD lanes, new
//    model families) pluggable.
//
// 2. Token-rule passes. Numerical/style contracts:
//
//   banned-random   No std::rand/srand or the *rand48 family anywhere in
//                   library code; only the srm::random generators are
//                   reproducible and seedable per chain.
//   log-domain      No tgamma and no exp(lgamma(...)) composition in
//                   src/core/ or src/stats/: likelihood/posterior code must
//                   stay in the log domain (tgamma overflows beyond ~171!).
//   iostream        No std::cout/std::cerr outside the CLI, report and
//                   serve layers; library code reports through return
//                   values and exceptions. (serve/ is a frontend: its
//                   binary and stream transport own stdout/stderr.)
//   float-compare   No floating-point ==/!= against floating literals
//                   outside the approved helpers in support/fp.hpp.
//   family-dispatch No PriorKind:: or DetectionModelKind:: enumerator
//                   mention outside src/core/: switch/if-chains over the
//                   kind enums are how per-family behavior used to leak
//                   into every layer. Per-family construction, metadata,
//                   serialization ids, CLI names and table labels all live
//                   in the model-family registry (core/model_family.hpp) —
//                   read the registry record instead, so a new family
//                   lands without touching this layer. Naming the enum
//                   *type* (parameters, generic loops) stays legal; only
//                   `Kind::kSomething` enumerator dispatch is flagged.
//   raw-thread      No std::thread / std::jthread / std::async outside
//                   src/runtime/: all parallelism goes through the shared
//                   runtime pool (task_group / parallel_for), which is what
//                   keeps results bit-identical for any worker count.
//   hot-std-function No std::function in src/mcmc/ or src/core/: the
//                   sampler hot path creates thousands of short-lived
//                   closures per scan, and std::function heap-allocates
//                   once a closure outgrows the small-buffer optimization.
//                   Take a support::function_ref instead.
//   expects         Every public function in src/core/ and src/stats/
//                   headers that takes scalar numeric parameters must
//                   execute an SRM_EXPECTS precondition in its
//                   implementation (inline body, the sibling .cpp, or a
//                   same-directory `<stem>_*.cpp` satellite TU such as
//                   bayes_srm_<part>.cpp for bayes_srm.hpp).
//   nested-vector-matrix No std::vector<std::vector<...>> in src/core/ or
//                   src/report/: pointwise matrices there are hot and a
//                   vector-of-vector pays one allocation and one pointer
//                   chase per row — use the flat row-major support::Matrix.
//   adhoc-serialization No stream-insertion operator<< overloads outside
//                   src/report/ and src/artifact/: results leave the
//                   library as typed, spec-hashed artifacts or rendered
//                   tables, never as per-type print overloads that drift
//                   from the canonical JSON form. Shift-semantics
//                   operator<< (no ostream parameter) stays legal.
//
//    Determinism rules guarding the bit-identity contract (results are
//    bit-identical for any worker count, across interrupt/resume, and for
//    any host locale):
//
//   unordered-output No std::unordered_map/std::unordered_set in
//                   src/artifact/, src/report/, src/cli/ or src/serve/:
//                   hash-container iteration order varies across libstdc++
//                   versions and ASLR runs, and those layers feed
//                   serialization and rendered output directly. Use
//                   std::map or a sorted vector.
//   wallclock       No std::random_device, std::chrono::system_clock,
//                   monotonic clocks (steady_clock/high_resolution_clock),
//                   or C time sources (time/gettimeofday/clock_gettime/
//                   localtime/gmtime/ctime) outside src/random/: any
//                   wall-clock or entropy read in library code makes a
//                   result depend on when/where it ran. One documented
//                   exemption: src/serve/metrics.cpp may read the
//                   monotonic clock, feeding the latency-stats path only
//                   (response meta and the `stats` op, never payloads).
//   pointer-order   No pointer-keyed std::map/std::set (or unordered
//                   variants): pointer order is allocation order, which
//                   varies run to run — key by a value identity instead.
//   locale-format   No std::to_string, setlocale, or std::locale outside
//                   src/support/: to_string on floating point formats via
//                   the global C locale (a German locale prints "1,5"),
//                   breaking byte-identical output. Use support::dec /
//                   support::fixed (support/format.hpp), which are
//                   to_chars-backed and locale-independent.
//   raw-intrinsics  No <immintrin.h>/<emmintrin.h>/<arm_neon.h> includes,
//                   no __builtin_ia32_* builtins, and no masked-select/
//                   movemask intrinsic spellings (_mm*_blendv_pd,
//                   _mm*_movemask_pd, _mm*_andnot_pd, vbslq_f64) outside
//                   src/support/simd/: ISA-specific code lives only
//                   there, so every other TU stays portable and compiles
//                   at the baseline ISA.
//
// 3. Contract-drift pass (contract.hpp, `srm-lint --self-check`): every
//    registered rule must fire on its violating fixtures and stay quiet on
//    the clean ones, and every scope/exemption path a rule names must still
//    exist in the linted tree.
//
// Any token or include rule can be suppressed at a specific site with a
// justification comment on the flagged line or the line above:
//
//   // srm-lint: allow(<rule>) — <reason>
//
// The scanner is heuristic (no real C++ parser): it strips comments and
// string literals, then works on tokens and balanced delimiters. The
// heuristics are tuned to this codebase's style and unit-tested against
// fixture trees in tools/srm-lint/fixtures/.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "finding.hpp"
#include "include_graph.hpp"
#include "scan.hpp"

namespace srm::lint {

/// Which pass implements a rule — the contract-drift check runs each rule
/// against the fixture tree its pass understands.
enum class PassKind { kToken, kIncludeGraph };

/// Registry entry for one rule. `anchors` lists the scope/exemption paths
/// the rule hard-codes (directory prefixes end in '/'); the contract-drift
/// pass verifies each still exists in the linted tree so a rename cannot
/// silently widen or narrow a rule.
struct RuleInfo {
  std::string_view name;
  std::string_view summary;
  PassKind pass = PassKind::kToken;
  /// Fixture tree (under fixtures/) where the rule must produce findings.
  std::string_view fixture_tree;
  std::vector<std::string_view> anchors;
};

/// Every rule the analyzer enforces, in documentation order.
const std::vector<RuleInfo>& registered_rules();

struct Options {
  std::filesystem::path root;
  /// Layer contract file; empty skips the include-graph pass.
  std::filesystem::path layers_file;
  /// Run only the include-graph pass (used for tests/ in warn-only mode).
  bool include_graph_only = false;
};

struct Result {
  std::vector<Finding> findings;  ///< sorted by (file, line, rule)
  IncludeGraph graph;             ///< populated when the include pass ran
  Layers layers;                  ///< the parsed layer contract (if any)
};

/// Runs the configured passes over `options.root`.
/// Throws LayersError when the layer contract itself is invalid.
Result run(const Options& options);

/// Back-compatible helper: token-rule passes only, over `root`.
std::vector<Finding> run_lint(const std::filesystem::path& root);

}  // namespace srm::lint
