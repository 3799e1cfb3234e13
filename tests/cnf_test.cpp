// Unit tests for src/cnf: clause normalization, CNF evaluation, and the
// DIMACS/QDIMACS/DQDIMACS reader/writer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "src/base/rng.hpp"
#include "src/cnf/clause.hpp"
#include "src/cnf/cnf.hpp"
#include "src/cnf/dimacs.hpp"

namespace hqs {
namespace {

TEST(Clause, NormalizeSortsAndDeduplicates)
{
    Clause c{Lit::pos(3), Lit::neg(1), Lit::pos(3), Lit::pos(0)};
    EXPECT_FALSE(c.normalize());
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0], Lit::pos(0));
    EXPECT_EQ(c[1], Lit::neg(1));
    EXPECT_EQ(c[2], Lit::pos(3));
}

TEST(Clause, NormalizeDetectsTautology)
{
    Clause c{Lit::pos(2), Lit::neg(2)};
    EXPECT_TRUE(c.normalize());
}

TEST(Clause, EmptyClause)
{
    Clause c;
    EXPECT_FALSE(c.normalize());
    EXPECT_TRUE(c.empty());
}

TEST(Clause, Contains)
{
    Clause c{Lit::pos(1), Lit::neg(2)};
    EXPECT_TRUE(c.contains(Lit::pos(1)));
    EXPECT_TRUE(c.contains(Lit::neg(2)));
    EXPECT_FALSE(c.contains(Lit::neg(1)));
}

TEST(Cnf, AddClauseGrowsVars)
{
    Cnf f;
    f.addClause({Lit::pos(4)});
    EXPECT_EQ(f.numVars(), 5u);
    EXPECT_EQ(f.numClauses(), 1u);
}

TEST(Cnf, TautologiesAreDropped)
{
    Cnf f;
    EXPECT_FALSE(f.addClause({Lit::pos(0), Lit::neg(0)}));
    EXPECT_EQ(f.numClauses(), 0u);
}

TEST(Cnf, EvaluateRespectsSemantics)
{
    // (x0 | ~x1) & (x1 | x2)
    Cnf f;
    f.addClause({Lit::pos(0), Lit::neg(1)});
    f.addClause({Lit::pos(1), Lit::pos(2)});
    EXPECT_TRUE(f.evaluate({true, true, false}));
    EXPECT_TRUE(f.evaluate({false, false, true}));
    EXPECT_FALSE(f.evaluate({false, true, false}));
    EXPECT_FALSE(f.evaluate({false, false, false}));
}

TEST(Cnf, EmptyClauseDetected)
{
    Cnf f;
    f.addClause(Clause{});
    EXPECT_TRUE(f.hasEmptyClause());
    EXPECT_FALSE(f.evaluate({}));
}

TEST(Dimacs, ParsePlainCnf)
{
    const auto p = parseDqdimacsString("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
    EXPECT_EQ(p.matrix.numVars(), 3u);
    ASSERT_EQ(p.matrix.numClauses(), 2u);
    EXPECT_TRUE(p.blocks.empty());
    EXPECT_TRUE(p.henkin.empty());
    EXPECT_TRUE(p.matrix.clause(0).contains(Lit::pos(0)));
    EXPECT_TRUE(p.matrix.clause(0).contains(Lit::neg(1)));
}

TEST(Dimacs, ParseQdimacsPrefix)
{
    const auto p = parseDqdimacsString("p cnf 4 1\na 1 2 0\ne 3 4 0\n1 3 0\n");
    ASSERT_EQ(p.blocks.size(), 2u);
    EXPECT_EQ(p.blocks[0].kind, QuantKind::Forall);
    EXPECT_EQ(p.blocks[0].vars, (std::vector<Var>{0, 1}));
    EXPECT_EQ(p.blocks[1].kind, QuantKind::Exists);
    EXPECT_EQ(p.blocks[1].vars, (std::vector<Var>{2, 3}));
}

TEST(Dimacs, ParseDqdimacsHenkinLines)
{
    // Example 1 from the paper: forall x1 x2 exists y1(x1) y2(x2).
    const auto p = parseDqdimacsString(
        "p cnf 4 2\na 1 2 0\nd 3 1 0\nd 4 2 0\n1 3 0\n-2 4 0\n");
    ASSERT_EQ(p.henkin.size(), 2u);
    EXPECT_EQ(p.henkin[0].var, 2u);
    EXPECT_EQ(p.henkin[0].deps, (std::vector<Var>{0}));
    EXPECT_EQ(p.henkin[1].var, 3u);
    EXPECT_EQ(p.henkin[1].deps, (std::vector<Var>{1}));
}

TEST(Dimacs, RoundTripPreservesStructure)
{
    const std::string text =
        "p cnf 5 3\na 1 2 0\ne 5 0\nd 3 1 0\nd 4 2 0\n1 3 5 0\n-2 4 0\n-3 -4 0\n";
    const auto p1 = parseDqdimacsString(text);
    const auto p2 = parseDqdimacsString(toDqdimacsString(p1));
    EXPECT_EQ(p1.blocks, p2.blocks);
    EXPECT_EQ(p1.henkin, p2.henkin);
    ASSERT_EQ(p1.matrix.numClauses(), p2.matrix.numClauses());
    for (std::size_t i = 0; i < p1.matrix.numClauses(); ++i)
        EXPECT_EQ(p1.matrix.clause(i), p2.matrix.clause(i));
}

TEST(Dimacs, MissingHeaderThrows)
{
    EXPECT_THROW(parseDqdimacsString("1 2 0\n"), ParseError);
    EXPECT_THROW(parseDqdimacsString("p dnf 1 1\n1 0\n"), ParseError);
}

TEST(Dimacs, OutOfRangeLiteralThrows)
{
    EXPECT_THROW(parseDqdimacsString("p cnf 2 1\n3 0\n"), ParseError);
    EXPECT_THROW(parseDqdimacsString("p cnf 2 1\na 5 0\n1 0\n"), ParseError);
    EXPECT_THROW(parseDqdimacsString("p cnf 2 1\nd 1 5 0\n1 0\n"), ParseError);
}

TEST(Dimacs, UnterminatedClauseThrows)
{
    EXPECT_THROW(parseDqdimacsString("p cnf 2 1\n1 2\n"), ParseError);
}

TEST(Dimacs, BadTokenThrows)
{
    EXPECT_THROW(parseDqdimacsString("p cnf 2 1\n1 x 0\n"), ParseError);
}

TEST(Dimacs, CommentsIgnoredEverywhere)
{
    const auto p = parseDqdimacsString(
        "c head\np cnf 2 1\nc mid\na 1 0\nc before clause\n1 -2 0\n");
    EXPECT_EQ(p.blocks.size(), 1u);
    EXPECT_EQ(p.matrix.numClauses(), 1u);
}

TEST(Dimacs, FileNotFoundThrows)
{
    EXPECT_THROW(parseDqdimacsFile("/nonexistent/file.dqdimacs"), ParseError);
}

/// Parse @p text through both entry points (string and stream) and check
/// they agree; returns the string reader's result.
ParsedQdimacs parseBoth(const std::string& text)
{
    const ParsedQdimacs fromString = parseDqdimacsString(text);
    std::istringstream in(text);
    const ParsedQdimacs fromStream = parseDqdimacs(in);
    EXPECT_EQ(fromString.matrix.numVars(), fromStream.matrix.numVars());
    EXPECT_EQ(fromString.matrix.clauses(), fromStream.matrix.clauses());
    EXPECT_EQ(fromString.blocks, fromStream.blocks);
    EXPECT_EQ(fromString.henkin, fromStream.henkin);
    return fromString;
}

/// The what() of the ParseError @p parse throws, or "" when it accepts.
template <typename F>
std::string errorOf(F&& parse)
{
    try {
        parse();
    } catch (const ParseError& e) {
        return e.what();
    }
    return "";
}

// The exact message of every reader error path, through both entry points.
// Front ends forward these texts to users and rows, so a rewrite of the
// reader must keep them verbatim, including which token a message names.
TEST(Dimacs, ErrorTextsArePinnedVerbatim)
{
    const struct {
        const char* text;
        const char* what;
    } cases[] = {
        {"p cnf 2 1\n1 x 0\n", "bad integer token 'x'"},
        {"1 2 0\n", "missing 'p cnf' header"},
        {"p dnf 1 1\n1 0\n", "header is not 'p cnf'"},
        {"p cnf 2 1\n3 0\n", "clause literal out of range"},
        {"p cnf 2 1\na 5 0\n1 0\n", "prefix variable out of range"},
        {"p cnf 2 1\nd 1 5 0\n1 0\n", "dependency variable out of range"},
        {"p cnf 2 1\n1 2\n", "last clause not terminated by 0"},
        {"", "missing 'p cnf' header"},
        {"p", "header is not 'p cnf'"},
        {"p cnf", "unexpected end of input, expected integer"},
        {"p cnf 1", "unexpected end of input, expected integer"},
        {"p cnf x 1", "bad integer token 'x'"},
        {"p cnf 1 1\n1x 0\n", "bad integer token '1x'"},
        {"p cnf 1 1\n99999999999999999999 0\n", "bad integer token '99999999999999999999'"},
        {"p cnf 1 1\n- 0\n", "bad integer token '-'"},
        {"p cnf 1 1\n--1 0\n", "bad integer token '--1'"},
        {"p cnf 1 1\n+-1 0\n", "bad integer token '+-1'"},
        {"p cnf 1 1\n0x1 0\n", "bad integer token '0x1'"},
        {"p cnf 1 1\n1 \xc3\xa9 0\n", "bad integer token '\xc3\xa9'"},
        {"p cnf 2 1\na 1 -2 0\n", "negative variable in quantifier block"},
        {"p cnf 2 1\na 1", "unexpected end of input, expected integer"},
        {"p cnf 3 1\ne 1 9223372036854775807 0\n", "prefix variable out of range"},
        {"p cnf 2 1\nd 3 1 0\n", "variable 3 out of range 1..2"},
        {"p cnf 2 1\nd 0 1 0\n", "variable 0 out of range 1..2"},
        {"p cnf 2 1\nd -1 1 0\n", "variable -1 out of range 1..2"},
        {"p cnf 2 1\nd 1 -2 0\n", "negative variable in dependency line"},
        {"p cnf -1 1\n", "negative counts in header"},
        {"p cnf 1 -1\n", "negative counts in header"},
        {"p cnf 1 1\n1 0 2", "clause literal out of range"},
        {"p cnf 2 1\n1 -3 0\n", "clause literal out of range"},
        {"  c not a comment\np cnf 1 1\n1 0\n", "missing 'p cnf' header"},
        // Values past 2^32 are compared before they narrow to a variable.
        {"p cnf 2 1\n4294967297 0\n", "clause literal out of range"},
        {"p cnf 2 1\n-4294967297 0\n", "clause literal out of range"},
        {"p cnf 2 1\na 4294967298 0\n1 0\n", "prefix variable out of range"},
        {"p cnf 2 1\nd 1 4294967298 0\n1 0\n", "dependency variable out of range"},
        {"p cnf 2 1\nd 4294967297 1 0\n", "variable 4294967297 out of range 1..2"},
        {"p cnf 1 1\n-9223372036854775808 0\n", "clause literal out of range"},
        {"p cnf 4294967297 1\n1 0\n", "variable count in header out of range"},
        {"p cnf 2147483648 1\n1 0\n", "variable count in header out of range"},
    };
    for (const auto& c : cases) {
        const std::string text = c.text;
        EXPECT_EQ(errorOf([&] { parseDqdimacsString(text); }), c.what) << text;
        EXPECT_EQ(errorOf([&] {
                      std::istringstream in(text);
                      parseDqdimacs(in);
                  }),
                  c.what)
            << text;
    }
    EXPECT_EQ(errorOf([] { parseDqdimacsFile("/nonexistent/file.dqdimacs"); }),
              "cannot open file '/nonexistent/file.dqdimacs'");
}

// Inputs the reader accepts, with the structure each must produce.
TEST(Dimacs, LargestHeaderCountKeepsItsTopVariable)
{
    // 2^31 - 1 variables: the top one is still a literal, not a wrapped one.
    const ParsedQdimacs p = parseBoth("p cnf 2147483647 1\na 2147483647 0\n-2147483647 0\n");
    EXPECT_EQ(p.matrix.numVars(), 2147483647u);
    EXPECT_EQ(p.blocks, (std::vector<PrefixBlockSpec>{{QuantKind::Forall, {2147483646}}}));
    EXPECT_EQ(p.matrix.clauses(), (std::vector<Clause>{Clause{Lit::neg(2147483646)}}));
}

TEST(Dimacs, CommentLinesFirstMidPrefixAndLast)
{
    const ParsedQdimacs p =
        parseBoth("c first\nc second\np cnf 3 2\nc in header gap\na 1 0\nc mid prefix\n"
                  "d 2 1 0\nc before clauses\n1 -2 0\nc between\n3 0\nc last");
    EXPECT_EQ(p.matrix.numVars(), 3u);
    EXPECT_EQ(p.blocks, (std::vector<PrefixBlockSpec>{{QuantKind::Forall, {0}}}));
    EXPECT_EQ(p.henkin, (std::vector<DependencySpec>{{1, {0}}}));
    EXPECT_EQ(p.matrix.clauses(),
              (std::vector<Clause>{Clause{Lit::pos(0), Lit::neg(1)}, Clause{Lit::pos(2)}}));
}

TEST(Dimacs, CrlfLineEndsAndEveryWhitespaceByte)
{
    const ParsedQdimacs crlf = parseBoth("c dos\r\np cnf 2 1\r\na 1 0\r\nc x\r\n1 -2 0\r\n");
    EXPECT_EQ(crlf.blocks, (std::vector<PrefixBlockSpec>{{QuantKind::Forall, {0}}}));
    EXPECT_EQ(crlf.matrix.clauses(), (std::vector<Clause>{Clause{Lit::pos(0), Lit::neg(1)}}));

    const ParsedQdimacs ws = parseBoth("p\tcnf \v2\f1\n\te\t2\t0\n 1\v-2\f0\r\n");
    EXPECT_EQ(ws.matrix.numVars(), 2u);
    EXPECT_EQ(ws.blocks, (std::vector<PrefixBlockSpec>{{QuantKind::Exists, {1}}}));
    EXPECT_EQ(ws.matrix.clauses(), (std::vector<Clause>{Clause{Lit::pos(0), Lit::neg(1)}}));
}

TEST(Dimacs, SignedLeadingZeroAndUnterminatedLastLine)
{
    const ParsedQdimacs p = parseBoth("p cnf 003 +2\na +1 0\n+3 -002 00 0003 0");
    EXPECT_EQ(p.matrix.numVars(), 3u);
    EXPECT_EQ(p.blocks, (std::vector<PrefixBlockSpec>{{QuantKind::Forall, {0}}}));
    EXPECT_EQ(p.matrix.clauses(),
              (std::vector<Clause>{Clause{Lit::neg(1), Lit::pos(2)}, Clause{Lit::pos(2)}}));
}

TEST(Dimacs, HeaderClauseCountIsNotEnforced)
{
    EXPECT_EQ(parseBoth("p cnf 2 5\n1 0\n").matrix.numClauses(), 1u);
    EXPECT_EQ(parseBoth("p cnf 2 0\n1 0\n-2 0\n0\n").matrix.numClauses(), 3u);
    // Tautologies are dropped on insertion; the empty clause is kept.
    const ParsedQdimacs p = parseBoth("p cnf 2 3\n1 -1 0\n0\n2 2 0\n");
    EXPECT_EQ(p.matrix.clauses(), (std::vector<Clause>{Clause{}, Clause{Lit::pos(1)}}));
}

/// The pre-rewrite writer, kept verbatim as the oracle for toDqdimacsString.
std::string streamWriterOracle(const ParsedQdimacs& f)
{
    std::ostringstream os;
    os << "p cnf " << f.matrix.numVars() << ' ' << f.matrix.numClauses() << '\n';
    for (const PrefixBlockSpec& b : f.blocks) {
        os << (b.kind == QuantKind::Forall ? 'a' : 'e');
        for (Var v : b.vars) os << ' ' << (v + 1);
        os << " 0\n";
    }
    for (const DependencySpec& d : f.henkin) {
        os << "d " << (d.var + 1);
        for (Var v : d.deps) os << ' ' << (v + 1);
        os << " 0\n";
    }
    for (const Clause& c : f.matrix) {
        for (Lit l : c) os << l.toDimacs() << ' ';
        os << "0\n";
    }
    return os.str();
}

TEST(Dimacs, StringWriterMatchesTheStreamOracle)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        ParsedQdimacs f;
        // Up to ~1.2M variables so multi-digit renderings are exercised.
        const Var n = 1 + static_cast<Var>(rng.below(seed % 3 == 0 ? 1200000 : 40));
        f.matrix.ensureVars(n);
        for (int b = 0, blocks = static_cast<int>(rng.below(4)); b < blocks; ++b) {
            PrefixBlockSpec block{rng.flip() ? QuantKind::Forall : QuantKind::Exists, {}};
            for (int k = 0, m = static_cast<int>(rng.below(4)); k < m; ++k)
                block.vars.push_back(static_cast<Var>(rng.below(n)));
            f.blocks.push_back(std::move(block));
        }
        for (int d = 0, lines = static_cast<int>(rng.below(4)); d < lines; ++d) {
            DependencySpec dep{static_cast<Var>(rng.below(n)), {}};
            for (int k = 0, m = static_cast<int>(rng.below(4)); k < m; ++k)
                dep.deps.push_back(static_cast<Var>(rng.below(n)));
            f.henkin.push_back(std::move(dep));
        }
        for (int c = 0, clauses = static_cast<int>(rng.below(12)); c < clauses; ++c) {
            Clause clause; // empty about one time in five
            for (int k = 0, m = static_cast<int>(rng.below(5)); k < m; ++k)
                clause.push(Lit(static_cast<Var>(rng.below(n)), rng.flip()));
            f.matrix.addClause(std::move(clause));
        }
        const std::string expected = streamWriterOracle(f);
        EXPECT_EQ(toDqdimacsString(f), expected) << "seed " << seed;
        std::ostringstream os;
        writeDqdimacs(os, f);
        EXPECT_EQ(os.str(), expected) << "seed " << seed;
    }
    EXPECT_EQ(toDqdimacsString(ParsedQdimacs{}), "p cnf 0 0\n");
}

// Every file in the corrupt-input corpus must be rejected with a ParseError
// (not accepted, not crash).  Each file exercises one throw branch of
// parseDqdimacs; the batch scheduler's survival on the same corpus is
// covered in fault_test.cpp.
TEST(Dimacs, CorruptCorpusIsRejectedWithParseError)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(HQS_TEST_DATA_DIR) / "corrupt";
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".dqdimacs") continue;
        ++count;
        EXPECT_THROW(parseDqdimacsFile(entry.path().string()), ParseError)
            << "accepted corrupt file " << entry.path();
    }
    EXPECT_GE(count, 13u); // one per ParseError branch of the parser
}

// The exact message each corpus file is rejected with, through the file,
// string and stream entry points.  A corpus file without a row here fails.
TEST(Dimacs, CorruptCorpusErrorTextsArePinnedVerbatim)
{
    namespace fs = std::filesystem;
    const std::map<std::string, std::string> expected = {
        {"bad_integer_token.dqdimacs", "bad integer token 'two'"},
        {"clause_literal_out_of_range.dqdimacs", "clause literal out of range"},
        {"dependency_head_out_of_range.dqdimacs", "variable 99 out of range 1..2"},
        {"dependency_var_out_of_range.dqdimacs", "dependency variable out of range"},
        {"empty_file.dqdimacs", "missing 'p cnf' header"},
        {"header_not_cnf.dqdimacs", "header is not 'p cnf'"},
        {"missing_header.dqdimacs", "missing 'p cnf' header"},
        {"negative_counts.dqdimacs", "negative counts in header"},
        {"negative_dependency_var.dqdimacs", "negative variable in dependency line"},
        {"negative_prefix_var.dqdimacs", "negative variable in quantifier block"},
        {"prefix_var_out_of_range.dqdimacs", "prefix variable out of range"},
        {"truncated_header.dqdimacs", "unexpected end of input, expected integer"},
        {"unterminated_clause.dqdimacs", "last clause not terminated by 0"},
    };
    const fs::path dir = fs::path(HQS_TEST_DATA_DIR) / "corrupt";
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".dqdimacs") continue;
        ++count;
        const std::string path = entry.path().string();
        const auto it = expected.find(entry.path().filename().string());
        ASSERT_NE(it, expected.end()) << "no pinned error text for " << path;
        EXPECT_EQ(errorOf([&] { parseDqdimacsFile(path); }), it->second) << path;
        std::ifstream in(path);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        EXPECT_EQ(errorOf([&] { parseDqdimacsString(text); }), it->second) << path;
        std::istringstream stream(text);
        EXPECT_EQ(errorOf([&] { parseDqdimacs(stream); }), it->second) << path;
    }
    EXPECT_EQ(count, expected.size());
}

} // namespace
} // namespace hqs
