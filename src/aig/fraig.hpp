// FRAIG-style functional reduction by SAT sweeping [24].
//
// The paper performs operations on AIGs "followed by a conversion to FRAIGs
// from time to time" (Section II-C).  fraigReduce rebuilds the cone of a
// root so that no two remaining nodes compute the same (or complementary)
// function: candidate equivalences are proposed by 64-way random simulation
// signatures and confirmed by incremental SAT equivalence checks; confirmed
// nodes are merged into their representative.  A sweep proves only while
// it has queries and time left, then finishes as a plain rebuild.
#pragma once

#include <cstdint>

#include "src/aig/aig.hpp"
#include "src/base/timer.hpp"

namespace hqs {

struct FraigOptions {
    /// 64-bit simulation words per node (more words = fewer spurious
    /// candidates, more memory).
    unsigned simWords = 4;
    /// Cap on SAT equivalence queries per sweep (0 = unlimited).  Keeps a
    /// sweep over a merge-rich cone from dominating the solve time: once it
    /// is reached the sweep stops simulating and proving, and the rest of
    /// the cone is a plain structural rebuild.
    std::size_t maxQueries = 1000;
    /// Global deadline: once expired, the sweep stops issuing SAT queries
    /// and finishes as a plain structural rebuild (still sound).
    Deadline deadline = Deadline::unlimited();
    std::uint64_t seed = 0x5eedULL;
    /// Why the sweep runs, as the `trigger` argument of its hqs.fraig span
    /// (a string literal; null: no argument).
    const char* trigger = nullptr;
};

struct FraigStats {
    std::size_t candidates = 0;  ///< SAT equivalence queries issued
    std::size_t merged = 0;      ///< nodes merged into a representative
    std::size_t refuted = 0;     ///< candidate pairs refuted by SAT
    std::size_t timedOut = 0;    ///< queries abandoned on budget or deadline
};

/// Functionally reduce the cone of @p root; returns the (logically
/// equivalent) new root.
AigEdge fraigReduce(Aig& aig, AigEdge root, const FraigOptions& opts = {},
                    FraigStats* stats = nullptr);

} // namespace hqs
