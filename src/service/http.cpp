#include "src/service/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace hqs::service {
namespace {

std::string toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

std::string_view trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
        s.remove_suffix(1);
    return s;
}

const std::string* findHeader(const std::vector<HttpHeader>& headers,
                              std::string_view lowerName)
{
    for (const HttpHeader& h : headers)
        if (h.name == lowerName) return &h.value;
    return nullptr;
}

/// Split the header block [0, headEnd) of @p buf into lines and parse
/// "Name: value" headers (the first line is handled by the caller).
bool parseHeaderLines(std::string_view head, std::string_view& firstLine,
                      std::vector<HttpHeader>& headers)
{
    std::size_t pos = head.find('\n');
    if (pos == std::string_view::npos) return false;
    firstLine = trim(head.substr(0, pos));
    ++pos;
    while (pos < head.size()) {
        std::size_t eol = head.find('\n', pos);
        if (eol == std::string_view::npos) eol = head.size();
        const std::string_view line = trim(head.substr(pos, eol - pos));
        pos = eol + 1;
        if (line.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) return false;
        headers.push_back({toLower(std::string(trim(line.substr(0, colon)))),
                           std::string(trim(line.substr(colon + 1)))});
    }
    return true;
}

/// Content-Length of @p headers; false on a malformed value.  Absent counts
/// as 0 (GET and header-only responses).
bool contentLength(const std::vector<HttpHeader>& headers, std::size_t& out)
{
    out = 0;
    const std::string* v = findHeader(headers, "content-length");
    if (!v) return true;
    if (v->empty()) return false;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v->c_str(), &end, 10);
    if (end != v->c_str() + v->size()) return false;
    out = static_cast<std::size_t>(n);
    return true;
}

} // namespace

const std::string* HttpRequest::header(std::string_view lowerName) const
{
    return findHeader(headers, lowerName);
}

const std::string* HttpResponseMsg::header(std::string_view lowerName) const
{
    return findHeader(headers, lowerName);
}

bool HttpRequest::keepAlive() const
{
    const std::string* conn = header("connection");
    if (conn) {
        const std::string v = toLower(*conn);
        if (v.find("close") != std::string::npos) return false;
        if (v.find("keep-alive") != std::string::npos) return true;
    }
    return version != "HTTP/1.0";
}

HttpParser::Status HttpParser::fail(int status, std::string reason)
{
    errorStatus_ = status;
    errorReason_ = std::move(reason);
    return Status::Error;
}

HttpParser::Status HttpParser::consumeRequest(std::string& buf, HttpRequest& out)
{
    const std::size_t headEnd = buf.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        if (buf.size() > maxHeaderBytes_) return fail(431, "header block too large");
        return Status::NeedMore;
    }
    if (headEnd > maxHeaderBytes_) return fail(431, "header block too large");

    HttpRequest req;
    std::string_view firstLine;
    if (!parseHeaderLines(std::string_view(buf).substr(0, headEnd + 2), firstLine,
                          req.headers))
        return fail(400, "malformed header");

    // Request line: METHOD SP TARGET SP VERSION.
    const std::size_t sp1 = firstLine.find(' ');
    const std::size_t sp2 = firstLine.rfind(' ');
    if (sp1 == std::string_view::npos || sp2 == sp1) return fail(400, "malformed request line");
    req.method = std::string(firstLine.substr(0, sp1));
    req.target = std::string(trim(firstLine.substr(sp1 + 1, sp2 - sp1 - 1)));
    req.version = std::string(firstLine.substr(sp2 + 1));
    if (req.method.empty() || req.target.empty() || req.version.rfind("HTTP/", 0) != 0)
        return fail(400, "malformed request line");

    std::size_t bodyLen = 0;
    if (!contentLength(req.headers, bodyLen)) return fail(400, "malformed content-length");
    if (req.header("transfer-encoding")) return fail(400, "chunked bodies unsupported");
    if (bodyLen > maxBodyBytes_) return fail(413, "body exceeds limit");

    const std::size_t total = headEnd + 4 + bodyLen;
    if (buf.size() < total) return Status::NeedMore;
    req.body = buf.substr(headEnd + 4, bodyLen);
    buf.erase(0, total);
    out = std::move(req);
    return Status::Ready;
}

HttpParser::Status HttpParser::consumeResponse(std::string& buf, HttpResponseMsg& out)
{
    const std::size_t headEnd = buf.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        if (buf.size() > maxHeaderBytes_) return fail(431, "header block too large");
        return Status::NeedMore;
    }

    HttpResponseMsg rsp;
    std::string_view firstLine;
    if (!parseHeaderLines(std::string_view(buf).substr(0, headEnd + 2), firstLine,
                          rsp.headers))
        return fail(400, "malformed header");

    // Status line: VERSION SP CODE SP REASON.
    const std::size_t sp1 = firstLine.find(' ');
    if (sp1 == std::string_view::npos || firstLine.rfind("HTTP/", 0) != 0)
        return fail(400, "malformed status line");
    rsp.version = std::string(firstLine.substr(0, sp1));
    rsp.status = std::atoi(std::string(firstLine.substr(sp1 + 1)).c_str());
    if (rsp.status < 100 || rsp.status > 599) return fail(400, "malformed status code");

    std::size_t bodyLen = 0;
    if (!contentLength(rsp.headers, bodyLen)) return fail(400, "malformed content-length");
    if (bodyLen > maxBodyBytes_) return fail(413, "body exceeds limit");

    const std::size_t total = headEnd + 4 + bodyLen;
    if (buf.size() < total) return Status::NeedMore;
    rsp.body = buf.substr(headEnd + 4, bodyLen);
    buf.erase(0, total);
    out = std::move(rsp);
    return Status::Ready;
}

const char* statusReason(int status)
{
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 413: return "Payload Too Large";
        case 429: return "Too Many Requests";
        case 431: return "Request Header Fields Too Large";
        case 503: return "Service Unavailable";
        default: return "Unknown";
    }
}

std::string httpResponse(int status, std::string_view contentType, std::string_view body,
                         bool keepAlive, std::string_view extraHeaders)
{
    std::string out;
    out.reserve(body.size() + 160);
    out += "HTTP/1.1 ";
    out += std::to_string(status);
    out += ' ';
    out += statusReason(status);
    out += "\r\nContent-Type: ";
    out += contentType;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: ";
    out += keepAlive ? "keep-alive" : "close";
    out += "\r\n";
    out += extraHeaders;
    out += "\r\n";
    out += body;
    return out;
}

// ----------------------------------------------------------------- JSON ---

std::string jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xf];
                    out += hex[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

bool jsonStringField(const std::string& obj, const std::string& key, std::string& out)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t start = obj.find(needle);
    if (start == std::string::npos) return false;
    out.clear();
    std::size_t i = start + needle.size();
    // The value decodes to at most its escaped length.
    std::size_t close = i;
    while (close < obj.size() && obj[close] != '"') close += obj[close] == '\\' ? 2 : 1;
    out.reserve(std::min(close, obj.size()) - i);
    while (i < obj.size()) {
        // Copy the run up to the next quote or backslash in one append.
        std::size_t runEnd = i;
        while (runEnd < obj.size() && obj[runEnd] != '"' && obj[runEnd] != '\\') ++runEnd;
        out.append(obj, i, runEnd - i);
        i = runEnd;
        if (i == obj.size()) break;
        if (obj[i] == '"') return true;
        if (i + 1 >= obj.size()) return false;
        switch (obj[i + 1]) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                // Only \u00XX is ever produced by jsonEscape.
                if (i + 5 >= obj.size()) return false;
                const std::string hex = obj.substr(i + 2, 4);
                char* end = nullptr;
                out.push_back(static_cast<char>(std::strtoul(hex.c_str(), &end, 16)));
                if (end != hex.c_str() + hex.size()) return false;
                i += 4;
                break;
            }
            default: return false;
        }
        i += 2;
    }
    return false; // unterminated string
}

bool jsonNumberField(const std::string& obj, const std::string& key, double& out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t start = obj.find(needle);
    if (start == std::string::npos) return false;
    const char* begin = obj.c_str() + start + needle.size();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return false;
    out = v;
    return true;
}

bool jsonBoolField(const std::string& obj, const std::string& key, bool& out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t start = obj.find(needle);
    if (start == std::string::npos) return false;
    const std::size_t pos = start + needle.size();
    if (obj.compare(pos, 4, "true") == 0) {
        out = true;
        return true;
    }
    if (obj.compare(pos, 5, "false") == 0) {
        out = false;
        return true;
    }
    return false;
}

bool jsonScalarField(const std::string& obj, const std::string& key, std::string& out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t start = obj.find(needle);
    if (start == std::string::npos) return false;
    std::size_t pos = start + needle.size();
    while (pos < obj.size() && (obj[pos] == ' ' || obj[pos] == '\t')) ++pos;
    if (pos < obj.size() && obj[pos] == '"')
        return jsonStringField(obj, key, out);
    out.clear();
    while (pos < obj.size()) {
        const char c = obj[pos];
        if (c == ',' || c == '}' || c == ' ' || c == '\t') break;
        out.push_back(c);
        ++pos;
    }
    return !out.empty();
}

// ------------------------------------------------------ solve protocol ---

std::string buildHttpSolveRequest(const std::string& formula,
                                  const SolveRequestOptions& opts, bool keepAlive)
{
    std::string out;
    out.reserve(formula.size() + 200);
    out += "POST /solve HTTP/1.1\r\nHost: dqbf\r\nContent-Type: text/plain\r\n";
    out += "Content-Length: ";
    out += std::to_string(formula.size());
    out += "\r\n";
    if (opts.timeoutSeconds > 0) {
        out += "timeout-ms: ";
        out += std::to_string(static_cast<long long>(opts.timeoutSeconds * 1000.0));
        out += "\r\n";
    }
    if (opts.rssLimitBytes > 0) {
        out += "rss-limit-mb: ";
        out += std::to_string(opts.rssLimitBytes / (1024 * 1024));
        out += "\r\n";
    }
    if (!opts.engine.empty()) {
        out += "engine: ";
        out += opts.engine;
        out += "\r\n";
    }
    if (opts.certify) out += "certify: 1\r\n";
    if (!opts.cacheControl.empty()) {
        // Not "cache-control": that would shadow standard HTTP
        // Cache-Control semantics.
        out += "solver-cache: ";
        out += opts.cacheControl;
        out += "\r\n";
    }
    if (!opts.strategy.empty()) {
        out += "strategy: ";
        out += opts.strategy;
        out += "\r\n";
    }
    if (!opts.format.empty()) {
        out += "format: ";
        out += opts.format;
        out += "\r\n";
    }
    if (!keepAlive) out += "Connection: close\r\n";
    out += "\r\n";
    out += formula;
    return out;
}

std::string buildJsonlHandshake(int version)
{
    return "{\"v\":" + std::to_string(version) + "}\n";
}

std::string buildJsonlSolveRequest(const std::string& id, const std::string& formula,
                                   const SolveRequestOptions& opts)
{
    std::string out = "{\"id\":\"" + jsonEscape(id) + "\"";
    if (!opts.op.empty()) out += ",\"op\":\"" + jsonEscape(opts.op) + "\"";
    if (!opts.session.empty())
        out += ",\"session\":\"" + jsonEscape(opts.session) + "\"";
    if (opts.timeoutSeconds > 0)
        out += ",\"timeout_ms\":" +
               std::to_string(static_cast<long long>(opts.timeoutSeconds * 1000.0));
    if (opts.rssLimitBytes > 0)
        out += ",\"rss_limit_mb\":" + std::to_string(opts.rssLimitBytes / (1024 * 1024));
    if (!opts.engine.empty()) out += ",\"engine\":\"" + jsonEscape(opts.engine) + "\"";
    if (opts.certify) out += ",\"certify\":true";
    if (!opts.cacheControl.empty())
        out += ",\"cache\":\"" + jsonEscape(opts.cacheControl) + "\"";
    if (!opts.strategy.empty())
        out += ",\"strategy\":\"" + jsonEscape(opts.strategy) + "\"";
    if (!opts.format.empty()) out += ",\"format\":\"" + jsonEscape(opts.format) + "\"";
    if (!opts.addGroup.empty())
        out += ",\"add_group\":\"" + jsonEscape(opts.addGroup) + "\"";
    if (!opts.deltaClauses.empty())
        out += ",\"clauses\":\"" + jsonEscape(opts.deltaClauses) + "\"";
    if (!opts.retractGroup.empty())
        out += ",\"retract_group\":\"" + jsonEscape(opts.retractGroup) + "\"";
    if (!opts.gate.empty()) out += ",\"gate\":\"" + jsonEscape(opts.gate) + "\"";
    if (!opts.assume.empty())
        out += ",\"assume\":\"" + jsonEscape(opts.assume) + "\"";
    if (!formula.empty()) out += ",\"formula\":\"" + jsonEscape(formula) + "\"";
    out += "}\n";
    return out;
}

} // namespace hqs::service
