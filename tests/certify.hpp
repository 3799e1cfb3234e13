// Shared by the Skolem tests of every certifying engine: judge a Skolem
// certificate the way `dqbf_solve --certify` + `dqbf_check` do, by
// extracting the artifact, serializing it, and running the independent
// checker on the text.
#pragma once

#include <gtest/gtest.h>

#include "src/cert/certificate.hpp"
#include "src/cert/extract.hpp"

namespace hqs {

inline ::testing::AssertionResult certifiesThroughProduction(const DqbfFormula& f,
                                                             const AigSkolemCertificate& skolem)
{
    const cert::CheckResult res = cert::checkCertificateText(
        cert::toCertificateString(cert::extractCertificate(f, skolem)));
    if (!res.ok())
        return ::testing::AssertionFailure()
               << "check failed: " << cert::toString(res.status) << " (" << res.detail << ")";
    return ::testing::AssertionSuccess();
}

} // namespace hqs
