// The one JSON string codec: escaping for every JSON line the project
// writes (batch journal, service replies, reports) and field readers for
// the single-line objects those writers produce.
//
// The readers are deliberately small: they find `"key":` by substring and
// decode one scalar.  They never throw.  A torn line (a killed writer) or a
// malformed escape reads as "absent", so callers can skip garbage lines.
#pragma once

#include <string>

namespace hqs::obs {

/// Escape @p s for a JSON string body: quotes, backslashes, \n \r \t, and
/// the other control characters as \u00XX (lowercase hex).
std::string jsonEscape(const std::string& s);

/// Extract the string value following `"key":"` in a single-line JSON
/// object produced with jsonEscape.  False when the key is absent, the
/// value is unterminated, or an escape is malformed (only \" \\ \n \r \t
/// and \uXXXX with four hex digits below 0x100 decode).
bool jsonStringField(const std::string& obj, const std::string& key, std::string& out);

/// Extract the number following `"key":`.  False when absent or malformed.
bool jsonNumberField(const std::string& obj, const std::string& key, double& out);

} // namespace hqs::obs
