// Seeded input generation: the PEC instance set of the solver workload and
// the request schedule of the service workload.  The solver
// only ever sees the DQDIMACS text produced here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/circuit/families.hpp"

namespace perfbench {

struct PecSpec {
    hqs::Family family;
    unsigned width;
    bool realizable; ///< ground truth: SAT iff realizable

    std::string name() const;
};

/// pec_sweep: every family at every width that decides well inside the
/// sweep budget (see README.md for the rule).
std::vector<PecSpec> sweepSpecs();

inline constexpr double kSweepBudgetSeconds = 10.0;
/// Live-AIG-node budget (the memout proxy of bench_table1).
inline constexpr std::size_t kNodeLimit = 500000;

/// Generate the instance and encode it to DQDIMACS text.
std::string encodePecText(const PecSpec& spec);

/// The same formula under a seeded variable renumbering.
std::string renumberedText(const std::string& text, std::uint64_t seed);

// ---------------------------------------------------------- service_mix --

enum class SlotKind {
    Cold,         ///< first sight of a PEC instance: cache miss, solve, store
    Repeat,       ///< byte-identical repeat: cache hit
    Renumbered,   ///< renumbered repeat: a canonical hit, or a solve when the key misses
    SessionOpen,  ///< v2 session over the multi-component family
    SessionDelta, ///< retract the previous clause group, add one, solve
    SessionSolve, ///< re-solve the unchanged session
    SessionClose,
};

const char* toString(SlotKind k);

/// One request of a connection's closed-loop sequence.
struct Slot {
    SlotKind kind = SlotKind::Cold;
    int instance = -1;       ///< index into ServiceSchedule::pool (PEC kinds)
    bool certify = false;    ///< ask for a Skolem certificate
    bool expectSat = true;   ///< ground truth of verdict-bearing slots
    std::string addGroup;    ///< SessionDelta
    std::string retractGroup;
    std::string clauses;     ///< SessionDelta clause text
};

struct ServiceSchedule {
    std::vector<PecSpec> pool;
    std::vector<std::string> poolText;
    /// One fixed renumbering of each pool instance, the same for every seed:
    /// renumbering changes the solver's work (up to 100x on small PEC
    /// instances) and canonical keys often miss it, so a seeded renumbering
    /// would make the workload's work depend on the seed.
    std::vector<std::string> poolRenumbered;
    std::string sessionBase; ///< formula of the session's open
    std::vector<Slot> conn[2]; ///< connection 1 also drives the session

    /// The formula a slot sends ("" for session ops other than open).
    const std::string& text(const Slot& slot) const;
};

ServiceSchedule makeServiceSchedule(std::uint64_t seed);

/// 64-bit FNV-1a of @p text (input digests for the determinism tests).
std::uint64_t fnv1a(const std::string& text);

} // namespace perfbench
