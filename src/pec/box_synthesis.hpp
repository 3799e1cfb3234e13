// Black-box synthesis for partial equivalence checking.
//
// When the PEC DQBF is satisfied, its Skolem functions ARE implementations
// of the missing black boxes (each box output's function reads exactly the
// box's input copies).  This module turns a Skolem certificate back into
// per-box truth tables and a Circuit::BoxFunction, completing the PEC
// story: not only "is the design realizable?" but "here are the missing
// modules".
#pragma once

#include <optional>

#include "src/dqbf/skolem_recorder.hpp"
#include "src/pec/pec_encoder.hpp"

namespace hqs {

/// Implementations for every black box of a PEC instance.
struct SynthesizedBoxes {
    /// tables[box][output][index]: index bit i corresponds to the box's
    /// i-th input signal (Circuit::boxInputs order).
    std::vector<std::vector<std::vector<bool>>> tables;

    /// Adapter for Circuit::simulate.
    Circuit::BoxFunction asBoxFunction() const;
};

/// Read the box implementations out of a Skolem certificate for @p enc's
/// formula (any certifying engine's).  The box's input copies were
/// allocated in box-input order, so each table indexes by Circuit::boxInputs.
SynthesizedBoxes boxesFromSkolem(const PecEncoding& enc, const AigSkolemCertificate& cert);

/// One-call convenience: encode the PEC instance, decide it with HQS
/// (computeSkolem) and read the boxes from the elimination-trace
/// certificate.  std::nullopt iff unrealizable (or deadline).
std::optional<SynthesizedBoxes> synthesizeBoxes(const PecInstance& inst,
                                                Deadline deadline = Deadline::unlimited());

/// Exhaustively check (over all primary-input assignments) that the
/// implementation with the synthesized boxes matches the specification.
/// Precondition: the instance has <= ~20 primary inputs.
bool boxesRealizeSpec(const PecInstance& inst, const SynthesizedBoxes& boxes);

} // namespace hqs
