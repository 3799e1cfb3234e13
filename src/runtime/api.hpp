// The unified solve-request surface shared by every entry point.
//
// dqbf_solve, dqbf_batch, the portfolio, and the solver service each accept
// the same small set of budgets and an engine selector, but historically
// each hand-rolled its own parsing and validation — PR 4's review found the
// same non-finite-timeout bug twice in two parsers.  SolveRequest is the
// single place those options live now:
//
//   * the parse*() helpers convert header/flag text into typed values and
//     reject malformed text (trailing garbage, overflow) — but deliberately
//     accept any syntactically valid double, including "nan" and "inf";
//   * validate() is the one gate that rejects semantically invalid
//     requests (non-finite or negative budgets, unknown engines) with
//     structured, field-tagged errors every front end can render.
//
// Entry points construct a SolveRequest, call validate(), and only then run
// it (api::execute, execute.hpp).  Nothing downstream of validate()
// re-checks budgets.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.hpp"

namespace hqs::api {

/// Engine selector parsed from a request's engine string.
struct EngineSpec {
    enum class Kind {
        Hqs,       ///< quantifier elimination (the paper's solver)
        HqsBdd,    ///< HQS with the BDD QBF backend ("hqs-bdd")
        Idq,       ///< instantiation-based baseline
        Expand,    ///< one-shot universal expansion
        Cegar,     ///< clausal abstraction with decision lists
        Portfolio, ///< race the default engine lineup ("portfolio[:N]")
    };
    Kind kind = Kind::Hqs;
    std::size_t portfolioEngines = 0; ///< lineup cap; 0 = all (Portfolio only)
};

const char* toString(EngineSpec::Kind kind);

/// The engine text parseEngineSpec reads back: the kind's name, plus ":N"
/// for a capped portfolio.
std::string toString(const EngineSpec& spec);

/// Coarse engine-family taxonomy for win/loss accounting: "elimination"
/// (hqs, hqs-bdd — the paper's quantifier-elimination family),
/// "instantiation" (idq, expand), "cegar" (clausal abstraction), or
/// "portfolio" for the meta-engine itself.
const char* engineFamily(EngineSpec::Kind kind);

/// "hqs" | "hqs-bdd" | "idq" | "expand" | "cegar" | "portfolio" |
/// "portfolio:N" (empty selects hqs, the service default).  nullopt on
/// anything else.
std::optional<EngineSpec> parseEngineSpec(const std::string& text);

/// One structured validation failure: which request field, and why.
struct RequestError {
    std::string field;
    std::string message;
};

/// A validated solve request: formula source plus budgets and toggles.
struct SolveRequest {
    /// Where the formula comes from — a path, "-" for stdin, or a
    /// front-end-specific tag (the service uses the request id).  Purely
    /// descriptive; the caller loads the text itself.
    std::string source;

    std::string engine = "hqs";  ///< see parseEngineSpec
    double timeoutSeconds = 0;   ///< wall-clock budget; 0 = none
    std::size_t rssLimitBytes = 0; ///< cooperative-memout watchdog; 0 = off
    std::size_t nodeLimit = 0;   ///< live-AIG-node / ground-clause budget
    bool stats = false;          ///< emit statistics with the verdict
    bool trace = false;          ///< record span traces
    bool certify = false;        ///< extract a Skolem certificate on SAT
    /// Result-cache control: "" (strategy decides) | "on" | "off" |
    /// "bypass" (skip the read, refresh the entry).  validate() rejects
    /// anything else.
    std::string cacheControl;
    /// Named strategy spec to solve under ("" = the deployment default).
    /// The grammar is validated here; whether the name is *known* is the
    /// front end's check, since it owns the spec table.
    std::string strategy;
    /// Input format: "" (sniff the content: a leading '#' means DQCIR) |
    /// "dqdimacs" | "dqcir".  validate() rejects anything else.
    std::string format;

    // ----- v2 session fields (JSONL protocol ops; see DESIGN.md §12) -----
    /// Session op: "" (stateless solve) | "open" | "delta" | "solve" |
    /// "close".  Everything below requires a non-empty op.
    std::string op;
    /// Target session id ("s-1", ...).  Required for delta/solve/close;
    /// must stay empty for open (the service allocates the id).
    std::string session;
    /// Delta payload (op "delta"): clause group to append with its clauses
    /// (DIMACS text, "1 -2 0"), group to retract, DQCIR gate replacement.
    std::string addGroup;
    std::string deltaClauses;
    std::string retractGroup;
    std::string gate;
    /// Assumption literals for this solve only (ops "delta"/"solve").
    std::string assume;

    /// Semantic validation: every violated rule yields one field-tagged
    /// error (empty vector = valid).  The only place in the tree that
    /// rejects non-finite or negative budgets.
    std::vector<RequestError> validate() const;

    /// parseEngineSpec(engine).
    std::optional<EngineSpec> parsedEngine() const { return parseEngineSpec(engine); }

    /// First validation error rendered as "field: message", or "" if valid.
    std::string firstError() const;
};

// ----- text -> value helpers (syntax only; validate() judges semantics) ----

/// Full-string parses; false on trailing garbage, overflow, or empty text.
bool parseSeconds(const std::string& text, double* out);
/// Milliseconds text (HTTP `timeout-ms` header) into seconds.
bool parseMilliseconds(const std::string& text, double* outSeconds);
/// Megabytes text (HTTP `rss-limit-mb` header / --rss-limit=MB) into bytes.
bool parseMegabytes(const std::string& text, std::size_t* outBytes);
/// Unsigned integer, full string.
bool parseSize(const std::string& text, std::size_t* out);

// ----- the one request-ingress table ---------------------------------------
//
// HTTP headers, JSONL fields, and CLI flags historically each hand-rolled
// the same field parsing; requestFields() is now the single table that
// names every request field per surface and owns its text -> value
// conversion, so spellings, types, and error messages cannot drift.

/// Which ingress surface a request arrived on (selects field spellings).
enum class RequestSurface { Http, Jsonl, Cli };

/// One request field across all three surfaces.  Empty spelling = the
/// field is not exposed on that surface (session ops are JSONL-only).
struct RequestFieldSpec {
    const char* canonical;       ///< v2 JSONL spelling — the field's identity
    const char* http;            ///< header name ("" = not exposed over HTTP)
    const char* cli;             ///< flag stem, used as "--<cli>=..." ("" = none)
    /// Parse @p text into the request; false on malformed text.
    bool (*apply)(SolveRequest&, const std::string&);
};

const std::vector<RequestFieldSpec>& requestFields();

/// Raw field text by spelling; nullopt when the request has no such field.
using FieldGetter = std::function<std::optional<std::string>(const std::string&)>;

/// Fill @p out from the table: for every field exposed on @p surface, pull
/// its text through @p get and apply it.  Returns "" on success or the
/// first "malformed <spelling>" problem; semantics are still validate()'s
/// job.
std::string parseRequestFields(SolveRequest& out, RequestSurface surface,
                               const FieldGetter& get);

/// CLI shim over the table: handles "--<cli>=<value>" (plus bare
/// "--certify") for every field with a CLI spelling.  Returns true when
/// @p arg matched a table flag; a parse failure fills @p problem.
bool applyCliRequestFlag(SolveRequest& out, const std::string& arg,
                         std::string* problem);

} // namespace hqs::api
