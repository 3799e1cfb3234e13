#include "src/obs/json.hpp"

#include <algorithm>
#include <cstdlib>

namespace hqs::obs {
namespace {

/// Value of one hex digit, or -1.
int hexValue(char c)
{
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

} // namespace

std::string jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    std::size_t run = 0; // start of the pending run of characters kept as-is
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
        // Copy the run before the escape in one append.
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: {
                const char* hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            }
        }
    }
    out.append(s, run, s.size() - run);
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
                // jsonEscape only writes \u00XX: one byte, four hex digits.
                if (i + 5 >= obj.size()) return false;
                unsigned code = 0;
                for (std::size_t k = i + 2; k < i + 6; ++k) {
                    const int digit = hexValue(obj[k]);
                    if (digit < 0) return false;
                    code = code * 16 + static_cast<unsigned>(digit);
                }
                if (code > 0xff) return false;
                out.push_back(static_cast<char>(code));
                i += 4;
                break;
            }
            default: return false;
        }
        i += 2;
    }
    return false; // unterminated string: a torn line
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

} // namespace hqs::obs
