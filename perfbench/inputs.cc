#include "inputs.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "checker/document_checker.h"
#include "core/brute_force.h"
#include "difftest/oracle.h"
#include "reductions/cnf_depth2.h"
#include "reductions/subset_sum.h"

namespace perfbench {

using namespace xmlverify;

namespace {

// One independent splitmix64 stream per (seed, stream, index).
struct Rng {
  uint64_t state;
  Rng(uint64_t seed, uint64_t stream, uint64_t index) {
    state = seed * 0x9e3779b97f4a7c15ULL ^ stream * 0xc2b2ae3d27d4eb4fULL ^
            index * 0x165667b19e3779f9ULL;
    SplitMix64(&state);
  }
  uint64_t Next() { return SplitMix64(&state); }
  int64_t Below(int64_t n) {
    return n <= 1 ? 0 : static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
};

// Streams of the seed space, so the workloads never share inputs.
constexpr uint64_t kStreamCheckMix = 1;
constexpr uint64_t kStreamReduction = 2;
constexpr uint64_t kStreamHotPool = 3;
constexpr uint64_t kStreamChurnWarm = 4;
constexpr uint64_t kStreamChurnConn = 16;  // + connection index
constexpr uint64_t kStreamChurnFresh = 32;  // + connection index

// Subset sum with 4 items below 32 (SubsetSumToSpec, Thm 3.5(a)),
// redrawn until the DP answer is `want`.
CheckInput SubsetSumInput(Rng* rng, bool want) {
  while (true) {
    SubsetSumInstance instance;
    int64_t sum = 0;
    for (int i = 0; i < 4; ++i) {
      instance.items.push_back(1 + rng->Below(31));
      sum += instance.items.back();
    }
    instance.target = 1 + rng->Below(sum);
    if (instance.HasSolution() != want) continue;
    Result<Specification> spec = SubsetSumToSpec(instance);
    if (!spec.ok()) continue;
    return {SpecToText(*spec), "subset_sum",
            want ? ConsistencyOutcome::kConsistent
                 : ConsistencyOutcome::kInconsistent};
  }
}

// Random 3-CNF over 3 variables with 10 clauses (CnfToDepth2Spec,
// Thm 3.5(a)), redrawn until DPLL's answer is `want`.
CheckInput CnfInput(Rng* rng, bool want) {
  while (true) {
    CnfFormula formula = CnfFormula::Random(3, 10, 3, rng->Next());
    if (formula.Solve().has_value() != want) continue;
    Result<Specification> spec = CnfToDepth2Spec(formula);
    if (!spec.ok()) continue;
    return {SpecToText(*spec), "cnf",
            want ? ConsistencyOutcome::kConsistent
                 : ConsistencyOutcome::kInconsistent};
  }
}

// Splits combined text at the "%%" line: constraint lines after it.
std::vector<std::string> ConstraintLines(const std::string& text,
                                         std::string* head) {
  size_t split = text.find("\n%%\n");
  std::vector<std::string> lines;
  if (split == std::string::npos) {
    *head = text;
    return lines;
  }
  *head = text.substr(0, split + 4);
  std::istringstream rest(text.substr(split + 4));
  std::string line;
  while (std::getline(rest, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Distinct-text table, deduplicated through a 64-bit hash of each text
// (a colliding different text is simply stored again).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string>* texts) : texts_(texts) {}
  uint32_t Add(std::string text) {
    const uint64_t hash = std::hash<std::string>{}(text);
    auto it = index_.find(hash);
    if (it != index_.end() && (*texts_)[it->second] == text) return it->second;
    uint32_t id = static_cast<uint32_t>(texts_->size());
    index_.emplace(hash, id);
    texts_->push_back(std::move(text));
    return id;
  }

 private:
  std::vector<std::string>* texts_;
  std::unordered_map<uint64_t, uint32_t> index_;
};

// Repeats and reformats draw uniformly from the last kRecent specs a
// connection has seen (editing sessions revisit recent work), which
// keeps serve-churn's hot set a fixed size however fast it runs.
constexpr size_t kRecent = 2048;

uint32_t Recent(const std::vector<uint32_t>& seen, Rng* rng) {
  size_t window = std::min(seen.size(), kRecent);
  return seen[seen.size() - 1 -
              static_cast<size_t>(rng->Below(static_cast<int64_t>(window)))];
}

}  // namespace

std::string LoadPaperExamples(const std::string& dir,
                              std::vector<PaperExample>* out) {
  // Published verdicts: Section 1 of the paper (school, with and
  // without the late dbLab requirement) and the country/province
  // example of the introduction.
  const std::pair<const char*, ConsistencyOutcome> kExamples[] = {
      {"geography", ConsistencyOutcome::kInconsistent},
      {"school", ConsistencyOutcome::kConsistent},
      {"school_inconsistent", ConsistencyOutcome::kInconsistent},
  };
  for (const auto& [name, verdict] : kExamples) {
    std::ifstream in(dir + "/" + name + ".xvc", std::ios::binary);
    if (!in) return "cannot read " + dir + "/" + name + ".xvc";
    std::ostringstream text;
    text << in.rdbuf();
    out->push_back({name, text.str(), verdict});
  }
  return "";
}

SpecGeneratorOptions BoundedGeneratorOptions() {
  SpecGeneratorOptions options;
  options.max_extra_types = 4;
  options.max_constraints = 3;
  options.allow_recursion = false;
  options.allow_star = false;
  return options;
}

std::string GeneratedText(uint64_t seed, uint64_t stream, int64_t index) {
  std::vector<DifftestClass> classes = AllDifftestClasses();
  DifftestClass cls = classes[static_cast<size_t>(index) % classes.size()];
  Rng rng(seed, stream, static_cast<uint64_t>(index));
  while (true) {
    Result<GeneratedSpec> spec =
        GenerateSpec(rng.Next(), cls, BoundedGeneratorOptions());
    if (spec.ok()) return spec->text;
  }
}

CheckInput CheckMixInput(uint64_t seed, int64_t index,
                         const std::vector<PaperExample>& examples) {
  const int64_t round = index / kRoundSize;
  const int slot = static_cast<int>(index % kRoundSize);
  Rng rng(seed, kStreamReduction, static_cast<uint64_t>(index));
  switch (slot) {
    case 9: case 49:  // one satisfiable, one not
      return SubsetSumInput(&rng, slot == 9);
    case 29: case 39:  // one satisfiable, one not
      return CnfInput(&rng, slot == 29);
    case 19: {
      const PaperExample& example =
          examples[static_cast<size_t>(round) % examples.size()];
      return {example.text, "example/" + example.name, example.published};
    }
    default: {
      std::vector<DifftestClass> classes = AllDifftestClasses();
      std::string text = GeneratedText(seed, kStreamCheckMix, index);
      return {std::move(text),
              "gen/" + DifftestClassName(
                           classes[static_cast<size_t>(index) % classes.size()]),
              std::nullopt};
    }
  }
}

ServeStream HotStream(uint64_t seed, int pool, int conns, int64_t per_conn) {
  ServeStream stream;
  TextTable table(&stream.texts);
  for (int i = 0; i < pool; ++i) {
    stream.warm.push_back(table.Add(GeneratedText(seed, kStreamHotPool, i)));
  }
  for (int c = 0; c < conns; ++c) {
    Rng rng(seed, kStreamChurnConn + 8 + c, 0);
    std::vector<uint32_t>& ids = stream.per_conn.emplace_back();
    ids.reserve(static_cast<size_t>(per_conn));
    for (int64_t j = 0; j < per_conn; ++j) {
      ids.push_back(stream.warm[static_cast<size_t>(rng.Below(
          static_cast<int64_t>(stream.warm.size())))]);
    }
    stream.repeats += per_conn;
  }
  return stream;
}

ServeStream ChurnStream(uint64_t seed, int warm, int conns, int64_t per_conn) {
  ServeStream stream;
  TextTable table(&stream.texts);
  for (int i = 0; i < warm; ++i) {
    stream.warm.push_back(table.Add(GeneratedText(seed, kStreamChurnWarm, i)));
  }
  struct Base {
    std::string head;
    std::vector<std::string> lines;
    size_t next_drop = 0;
  };
  for (int c = 0; c < conns; ++c) {
    Rng rng(seed, kStreamChurnConn + c, 0);
    std::vector<uint32_t> seen = stream.warm;
    std::deque<Base> bases;  // recent fresh specs of this connection
    int64_t fresh_index = 0;
    std::vector<uint32_t>& ids = stream.per_conn.emplace_back();
    ids.reserve(static_cast<size_t>(per_conn));
    for (int64_t j = 0; j < per_conn; ++j) {
      int64_t roll = rng.Below(100);
      uint32_t id = 0;
      if (roll < 25 && roll >= 10) {
        // One-constraint edit: drop the next constraint of the most
        // recent fresh spec that still has one. The server confirms
        // it through the implication quick tier when the base was
        // CONSISTENT (the base's witness satisfies the subset).
        while (!bases.empty() &&
               bases.back().next_drop >= bases.back().lines.size()) {
          bases.pop_back();
        }
        if (!bases.empty()) {
          Base& base = bases.back();
          std::string text = base.head;
          for (size_t k = 0; k < base.lines.size(); ++k) {
            if (k != base.next_drop) text += base.lines[k] + "\n";
          }
          ++base.next_drop;
          id = table.Add(std::move(text));
          ++stream.edits;
          ids.push_back(id);
          seen.push_back(id);
          continue;
        }
        roll = 0;  // no base to edit: send a fresh spec instead
      }
      if (roll < 10) {
        std::string text =
            GeneratedText(seed, kStreamChurnFresh + c, fresh_index++);
        Base base;
        base.lines = ConstraintLines(text, &base.head);
        if (!base.lines.empty()) {
          bases.push_back(std::move(base));
          if (bases.size() > 8) bases.pop_front();
        }
        id = table.Add(std::move(text));
        ++stream.fresh;
      } else if (roll < 45) {
        // Reformatted repeat: same spec, new bytes (a trailing comment
        // line), so the raw tier misses and the canonical tier hits.
        uint32_t of = Recent(seen, &rng);
        id = table.Add(stream.texts[of] + "# variant " + std::to_string(c) +
                       "-" + std::to_string(j) + "\n");
        ++stream.reformats;
      } else {
        id = Recent(seen, &rng);
        ++stream.repeats;
      }
      ids.push_back(id);
      seen.push_back(id);
    }
  }
  return stream;
}

GateResult Gate(const Specification& spec, const ConsistencyVerdict& verdict,
                const std::optional<ConsistencyOutcome>& known) {
  GateResult gate;
  const ConsistencyOutcome outcome = verdict.outcome;
  gate.decided = outcome == ConsistencyOutcome::kConsistent ||
                 outcome == ConsistencyOutcome::kInconsistent;
  if (!gate.decided) {
    gate.reason = "no definitive verdict: " + OutcomeName(outcome);
    return gate;
  }
  if (known.has_value() && outcome != *known) {
    gate.wrong = true;
    gate.reason = "verdict " + OutcomeName(outcome) + ", known answer " +
                  OutcomeName(*known);
    return gate;
  }
  if (outcome == ConsistencyOutcome::kConsistent) {
    if (!verdict.witness.has_value()) {
      gate.wrong = true;
      gate.reason = "CONSISTENT without a witness";
      return gate;
    }
    Status replay = CheckDocument(*verdict.witness, spec.dtd, spec.constraints);
    if (!replay.ok()) {
      gate.wrong = true;
      gate.reason = "witness fails CheckDocument: " + replay.ToString();
    }
    return gate;
  }
  if (known.has_value()) return gate;
  std::optional<ConsistencyOutcome> exhaustive = ExhaustiveAnswer(spec);
  if (exhaustive == ConsistencyOutcome::kConsistent) {
    gate.wrong = true;
    gate.reason = "INCONSISTENT, but exhaustive search found a document";
  }
  gate.exhaustive_proof = exhaustive == ConsistencyOutcome::kInconsistent;
  return gate;
}

std::optional<ConsistencyOutcome> ExhaustiveAnswer(const Specification& spec) {
  // The difftest oracle's exhaustive search under its own size gate
  // (oracle.cc): a non-recursive star-free DTD whose largest document
  // has at most 7 nodes and 4 attribute slots has a finite document
  // space, so an exhausted search proves inconsistency.
  const Dtd& dtd = spec.dtd;
  if (dtd.IsRecursive() || !dtd.IsNoStar()) return std::nullopt;
  const OracleOptions oracle;
  int nodes = MaxDocumentNodes(dtd, oracle.exhaustive_max_nodes + 1);
  int slots = MaxAttributeSlots(dtd, oracle.exhaustive_max_slots + 1);
  if (nodes > oracle.exhaustive_max_nodes ||
      slots > oracle.exhaustive_max_slots) {
    return std::nullopt;
  }
  BoundedSearchOptions exhaustive;
  exhaustive.max_nodes = nodes;
  exhaustive.num_values = std::max(1, slots);
  exhaustive.max_candidates =
      std::max<int64_t>(oracle.bounded.max_candidates, 500000);
  Result<ConsistencyVerdict> search =
      BoundedSearchConsistency(dtd, spec.constraints, exhaustive);
  if (!search.ok()) return std::nullopt;
  if (search->outcome == ConsistencyOutcome::kConsistent) return search->outcome;
  if (search->outcome == ConsistencyOutcome::kUnknown &&
      search->note.rfind("no satisfying document", 0) == 0) {
    return ConsistencyOutcome::kInconsistent;
  }
  return std::nullopt;
}

std::optional<ConsistencyOutcome> OutcomeFromName(const std::string& name) {
  for (ConsistencyOutcome outcome :
       {ConsistencyOutcome::kConsistent, ConsistencyOutcome::kInconsistent,
        ConsistencyOutcome::kUnknown, ConsistencyOutcome::kDeadlineExceeded,
        ConsistencyOutcome::kResourceExhausted}) {
    if (OutcomeName(outcome) == name) return outcome;
  }
  return std::nullopt;
}

}  // namespace perfbench
