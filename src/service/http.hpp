// Wire formats of the solver service: a minimal HTTP/1.1 message codec and
// the newline-JSON (JSONL) row helpers shared by the server, the blocking
// client, and the load-generator CLI.
//
// The parser is deliberately small: request line + headers + Content-Length
// body, no chunked transfer, no multipart.  That covers every client the
// service speaks to (curl, dqbf_client, bench_service) and keeps the epoll
// loop's per-connection state to one buffer.  Limits are enforced during
// parsing so a hostile peer cannot balloon the buffer: oversized headers
// fail with 431, oversized bodies with 413, malformed framing with 400 —
// the connection is answered and closed, never crashed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hqs::service {

struct HttpHeader {
    std::string name; ///< lower-cased during parsing
    std::string value;
};

struct HttpRequest {
    std::string method;  ///< "GET", "POST", ...
    std::string target;  ///< origin-form, e.g. "/solve"
    std::string version; ///< "HTTP/1.1"
    std::vector<HttpHeader> headers;
    std::string body;

    /// Value of the first header named @p lowerName, or nullptr.
    const std::string* header(std::string_view lowerName) const;
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    /// Connection header overrides either way.
    bool keepAlive() const;
};

struct HttpResponseMsg {
    int status = 0;
    std::string version;
    std::vector<HttpHeader> headers;
    std::string body;

    const std::string* header(std::string_view lowerName) const;
};

/// Incremental HTTP/1.1 message reader over a growing byte buffer.  consume()
/// inspects the front of @p buf; once a full message is present it is removed
/// from the buffer and returned, so pipelined messages queue up naturally.
class HttpParser {
public:
    enum class Status {
        NeedMore, ///< incomplete message, read more bytes
        Ready,    ///< one message parsed and consumed from the buffer
        Error,    ///< malformed or over-limit; see errorStatus()
    };

    explicit HttpParser(std::size_t maxHeaderBytes = 64 * 1024,
                        std::size_t maxBodyBytes = 16u << 20)
        : maxHeaderBytes_(maxHeaderBytes), maxBodyBytes_(maxBodyBytes)
    {
    }

    Status consumeRequest(std::string& buf, HttpRequest& out);
    Status consumeResponse(std::string& buf, HttpResponseMsg& out);

    /// HTTP status describing the last Error (400, 413, or 431).
    int errorStatus() const { return errorStatus_; }
    const std::string& errorReason() const { return errorReason_; }

private:
    Status fail(int status, std::string reason);

    std::size_t maxHeaderBytes_;
    std::size_t maxBodyBytes_;
    int errorStatus_ = 0;
    std::string errorReason_;
};

/// Canonical reason phrase for @p status ("OK", "Too Many Requests", ...).
const char* statusReason(int status);

/// Serialize one HTTP/1.1 response.  @p extraHeaders, when non-empty, is a
/// pre-formatted block of "Name: value\r\n" lines (e.g. "Retry-After: 1\r\n").
std::string httpResponse(int status, std::string_view contentType, std::string_view body,
                         bool keepAlive, std::string_view extraHeaders = {});

// ----------------------------------------------------------------- JSON ---

/// JSON string escaping matching the batch journal's writer (quotes,
/// backslashes, control characters as \u00XX).
std::string jsonEscape(const std::string& s);

/// Extract the string value following `"key":"` in a single-line JSON
/// object produced with jsonEscape.  False when absent or unterminated.
bool jsonStringField(const std::string& obj, const std::string& key, std::string& out);

/// Extract the number following `"key":`.  False when absent or malformed.
bool jsonNumberField(const std::string& obj, const std::string& key, double& out);

/// Extract the boolean following `"key":`.  False when absent or malformed.
bool jsonBoolField(const std::string& obj, const std::string& key, bool& out);

/// Extract the value following `"key":` as raw text whatever its JSON
/// type: quoted strings are unescaped (jsonStringField), numbers and
/// booleans are returned as their literal token ("1500", "true").  The
/// surface-agnostic getter api::parseRequestFields consumes.
bool jsonScalarField(const std::string& obj, const std::string& key, std::string& out);

// ------------------------------------------------------ solve protocol ---

/// Per-request solver options.  Field names per surface come from the one
/// api::requestFields() table: HTTP headers `timeout-ms`, `rss-limit-mb`,
/// `engine`, `certify`, `solver-cache`, `strategy`, `format`; JSONL fields
/// `timeout_ms`, `rss_limit_mb`, `engine`, `certify`, `cache`, `strategy`,
/// `format` plus the v2 session fields (`op`, `session`, `add_group`,
/// `clauses`, `retract_group`, `gate`, `assume`).
struct SolveRequestOptions {
    double timeoutSeconds = 0;      ///< 0 = server default
    std::size_t rssLimitBytes = 0;  ///< 0 = server default
    std::string engine;             ///< "" = server default ("hqs")
    /// Request a Skolem certificate with a SAT verdict.  The response gains
    /// a `certificate` object (serialized artifact plus metadata) unless the
    /// artifact exceeds the server's byte cap — then HTTP callers get 413
    /// and JSONL rows a `certificate_error` field.
    bool certify = false;
    /// Per-request result-cache override: "" (follow the strategy's cache
    /// policy), "on", "off", or "bypass" (solve fresh but refresh the
    /// entry).  A served-from-cache response carries `"cached":true`.
    std::string cacheControl;
    /// Strategy spec to solve under, by name ("" = the server's default).
    /// Naming a strategy the server does not have is a 400 / error row.
    std::string strategy;
    /// Input format of the request body: "" (content-sniff: a '#QCIR'
    /// header means DQCIR, anything else DQDIMACS), "dqdimacs", or
    /// "dqcir".  DQCIR requests lower through the circuit front end and
    /// never touch the result cache (cache.bypass.format).
    std::string format;

    // ----- v2 session ops (JSONL only; see DESIGN.md §12) -----
    std::string op;           ///< "" | "open" | "delta" | "solve" | "close"
    std::string session;      ///< target session id (delta/solve/close)
    std::string addGroup;     ///< delta: clause group to append
    std::string deltaClauses; ///< delta: its clauses, DIMACS text
    std::string retractGroup; ///< delta: group to retract
    std::string gate;         ///< delta: DQCIR gate replacement line
    std::string assume;       ///< delta/solve: assumption literals
};

/// The v2 handshake row `{"v":N}` (newline included).  The server answers
/// `{"protocol":"v2"}` for the current version, `{"protocol":"v1-compat"}`
/// for v1, and an error row for anything newer.
std::string buildJsonlHandshake(int version);

/// One `POST /solve` request with @p formula (DQDIMACS text) as the body.
std::string buildHttpSolveRequest(const std::string& formula,
                                  const SolveRequestOptions& opts, bool keepAlive);

/// One JSONL request row: {"id":...,...options...,"formula":...}.
/// Terminating newline included; the formula's newlines are escaped, so the
/// row is always a single line.  Session ops emit their op/session/delta
/// fields; @p formula may be "" (ops other than open and stateless solve),
/// in which case no formula field is emitted.
std::string buildJsonlSolveRequest(const std::string& id, const std::string& formula,
                                   const SolveRequestOptions& opts);

} // namespace hqs::service
