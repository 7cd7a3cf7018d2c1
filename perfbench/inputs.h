// Seeded inputs of the three perfbench workloads and the known-answer
// gate that every verdict must pass. Nothing here asks the pipeline
// under test for an answer: reductions carry the DPLL / subset-sum DP
// answer, paper examples their published verdict, CONSISTENT verdicts
// are replayed through the dynamic checker, and generated INCONSISTENT
// verdicts are refuted by exhaustive enumeration where the difftest
// oracle's size gate allows it.
#ifndef XMLVERIFY_PERFBENCH_INPUTS_H_
#define XMLVERIFY_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/specification.h"
#include "core/verdict.h"
#include "difftest/spec_generator.h"

namespace perfbench {

using xmlverify::ConsistencyOutcome;

struct PaperExample {
  std::string name;
  std::string text;  // combined .xvc bytes
  ConsistencyOutcome published;
};

/// Reads the paper's worked examples shipped in `dir`. Empty string on
/// success, else the reason.
std::string LoadPaperExamples(const std::string& dir,
                              std::vector<PaperExample>* out);

/// One check-mix input: spec bytes plus, when one exists, an answer
/// that did not come from the pipeline under test.
struct CheckInput {
  std::string text;
  std::string kind;  // "gen/<class>", "example/<name>", "subset_sum", "cnf"
  std::optional<ConsistencyOutcome> known;
};

/// check-mix is built from rounds of 50 inputs: 45 generated specs
/// (classes in rotation), one paper example, two subset-sum and two
/// CNF reduction instances (Theorem 3.5). Of each pair of reductions
/// one is satisfiable and one is not. The unsatisfiable CNF instances,
/// the slowest inputs, are then 2% of all, so the p99 latency falls
/// inside their cluster and not on its edge.
constexpr int kRoundSize = 50;
CheckInput CheckMixInput(uint64_t seed, int64_t index,
                         const std::vector<PaperExample>& examples);

/// Generator settings for every generated spec: the difftest grammar
/// with non-recursive, star-free DTDs. With recursion and stars the
/// grammar has a multi-second tail (see NOTES.md) that no fixed-length
/// run measures steadily.
xmlverify::SpecGeneratorOptions BoundedGeneratorOptions();

/// Canonical text of a generated spec, deterministic in
/// (seed, stream, index); classes rotate with `index`.
std::string GeneratedText(uint64_t seed, uint64_t stream, int64_t index);

/// Request streams of the serve workloads. `texts` holds every distinct
/// spec text; warm-up and connection streams index into it.
struct ServeStream {
  std::vector<std::string> texts;
  std::vector<uint32_t> warm;                   // sent once by the warm-up
  std::vector<std::vector<uint32_t>> per_conn;  // closed-loop sequences
  // serve-churn composition, counted while generating.
  int64_t fresh = 0, edits = 0, reformats = 0, repeats = 0;
};

/// serve-hot: a pool of `pool` generated specs, all warmed up, then
/// uniform picks from it.
ServeStream HotStream(uint64_t seed, int pool, int conns, int64_t per_conn);

/// serve-churn: `warm` warmed specs, then per request (per connection,
/// seeded): 10% fresh specs, 15% one-constraint edits of a fresh spec
/// this connection sent recently, 20% reformatted repeats and 55% exact
/// repeats of one of the last 2048 specs the connection has seen.
ServeStream ChurnStream(uint64_t seed, int warm, int conns, int64_t per_conn);

/// Outcome of the known-answer gate for one verdict.
struct GateResult {
  bool decided = false;  // CONSISTENT or INCONSISTENT
  bool wrong = false;    // contradicts an independent check
  bool exhaustive_proof = false;  // exhaustive search confirmed INCONSISTENT
  std::string reason;
};

GateResult Gate(const xmlverify::Specification& spec,
                const xmlverify::ConsistencyVerdict& verdict,
                const std::optional<ConsistencyOutcome>& known);

/// The difftest oracle's exhaustive answer, where its size gate allows
/// one: kConsistent (a document was found), kInconsistent (the finite
/// document space was exhausted), or nullopt.
std::optional<ConsistencyOutcome> ExhaustiveAnswer(
    const xmlverify::Specification& spec);

/// Parses "CONSISTENT", "INCONSISTENT", ... back to the outcome.
std::optional<ConsistencyOutcome> OutcomeFromName(const std::string& name);

}  // namespace perfbench

#endif  // XMLVERIFY_PERFBENCH_INPUTS_H_
