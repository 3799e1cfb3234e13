// Tests for the unified solve-request surface (src/runtime/api.hpp).
// Every entry point — dqbf_solve, dqbf_batch, dqbf_serve's defaults, the
// portfolio, and the service's HTTP-header/JSONL parsers — funnels budgets
// through SolveRequest::validate(), so the non-finite/negative-budget and
// unknown-engine rules are asserted exactly once, here.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/runtime/api.hpp"

namespace hqs::api {
namespace {

TEST(SolveRequest, DefaultRequestIsValid)
{
    SolveRequest request;
    EXPECT_TRUE(request.validate().empty());
    EXPECT_EQ(request.firstError(), "");
    ASSERT_TRUE(request.parsedEngine().has_value());
    EXPECT_EQ(request.parsedEngine()->kind, EngineSpec::Kind::Hqs);
}

TEST(SolveRequest, RejectsNonFiniteTimeout)
{
    // The single shared gate: "nan"/"inf" survive the syntax parsers by
    // design (std::stod accepts them), and validate() is the one place in
    // the tree that bounces them — for every front end at once.
    for (const char* bad : {"nan", "inf", "-inf"}) {
        SolveRequest request;
        ASSERT_TRUE(parseSeconds(bad, &request.timeoutSeconds)) << bad;
        const std::vector<RequestError> errors = request.validate();
        ASSERT_EQ(errors.size(), 1u) << bad;
        EXPECT_EQ(errors[0].field, "timeout") << bad;
        EXPECT_EQ(errors[0].message, "timeout must be finite") << bad;
    }
}

TEST(SolveRequest, RejectsNegativeTimeout)
{
    SolveRequest request;
    request.timeoutSeconds = -1.0;
    const std::vector<RequestError> errors = request.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].field, "timeout");
}

TEST(SolveRequest, RejectsUnknownEngineWithFieldTag)
{
    SolveRequest request;
    request.engine = "minisat";
    const std::vector<RequestError> errors = request.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].field, "engine");
    EXPECT_NE(errors[0].message.find("minisat"), std::string::npos);
    EXPECT_FALSE(request.parsedEngine().has_value());
}

TEST(SolveRequest, CollectsEveryViolation)
{
    SolveRequest request;
    request.engine = "bogus";
    request.timeoutSeconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(request.validate().size(), 2u);
    EXPECT_EQ(request.firstError().substr(0, 7), "engine:");
}

TEST(EngineSpecParsing, AcceptsTheFullEngineMenu)
{
    const struct {
        const char* text;
        EngineSpec::Kind kind;
    } ok[] = {
        {"", EngineSpec::Kind::Hqs},         {"hqs", EngineSpec::Kind::Hqs},
        {"hqs-bdd", EngineSpec::Kind::HqsBdd}, {"idq", EngineSpec::Kind::Idq},
        {"expand", EngineSpec::Kind::Expand}, {"portfolio", EngineSpec::Kind::Portfolio},
    };
    for (const auto& c : ok) {
        const auto spec = parseEngineSpec(c.text);
        ASSERT_TRUE(spec.has_value()) << c.text;
        EXPECT_EQ(spec->kind, c.kind) << c.text;
        EXPECT_EQ(spec->portfolioEngines, 0u) << c.text;
    }

    const auto capped = parseEngineSpec("portfolio:3");
    ASSERT_TRUE(capped.has_value());
    EXPECT_EQ(capped->kind, EngineSpec::Kind::Portfolio);
    EXPECT_EQ(capped->portfolioEngines, 3u);
    // toString is the inverse the front ends use to rebuild engine text.
    EXPECT_EQ(toString(*capped), "portfolio:3");
    EXPECT_EQ(toString(*parseEngineSpec("hqs-bdd")), "hqs-bdd");

    for (const char* bad : {"portfolio:", "portfolio:0", "portfolio:x", "sat", "HQS"}) {
        EXPECT_FALSE(parseEngineSpec(bad).has_value()) << bad;
    }
}

TEST(ParseHelpers, FullStringSyntaxOnly)
{
    double seconds = 0;
    EXPECT_TRUE(parseSeconds("2.5", &seconds));
    EXPECT_DOUBLE_EQ(seconds, 2.5);
    EXPECT_FALSE(parseSeconds("", &seconds));
    EXPECT_FALSE(parseSeconds("2.5s", &seconds));
    EXPECT_FALSE(parseSeconds("x", &seconds));
    // Deliberately syntax-only: the semantic verdict belongs to validate().
    EXPECT_TRUE(parseSeconds("nan", &seconds));
    EXPECT_TRUE(std::isnan(seconds));

    EXPECT_TRUE(parseMilliseconds("1500", &seconds));
    EXPECT_DOUBLE_EQ(seconds, 1.5);

    std::size_t n = 0;
    EXPECT_TRUE(parseSize("42", &n));
    EXPECT_EQ(n, 42u);
    EXPECT_FALSE(parseSize("42k", &n));
    EXPECT_FALSE(parseSize("", &n));

    std::size_t bytes = 0;
    EXPECT_TRUE(parseMegabytes("8", &bytes));
    EXPECT_EQ(bytes, 8u * 1024 * 1024);
    EXPECT_FALSE(parseMegabytes("99999999999999999999", &bytes)); // overflow
}

} // namespace
} // namespace hqs::api
