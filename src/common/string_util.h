// Small string helpers shared across modules (no locale dependence).

#ifndef SCUBE_COMMON_STRING_UTIL_H_
#define SCUBE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scube {

/// Splits `input` on `sep`; keeps empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> Split(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII-only lower-casing (sufficient for attribute names and enum values).
std::string ToLower(std::string_view s);

/// True iff `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict integer / double parsing of the *entire* string.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Strict unsigned hex parsing of the entire string (no 0x prefix, both
/// cases accepted). InvalidArgument on empty input, non-hex characters or
/// uint64 overflow. Used by the chunked-transfer decoder and the cursor
/// codec.
Result<uint64_t> ParseHexU64(std::string_view s);

/// Appends `v` as exactly 16 lower-case hex digits, zero-padded (the
/// "%016llx" rendering); ParseHexU64 reads it back. Used for cursor query
/// hashes, trace ids and the shard wire format's double bit patterns.
void AppendHexU64(uint64_t v, std::string* out);

/// Appends `v` in decimal (std::to_chars; the bytes of std::to_string).
void AppendDecimal(uint64_t v, std::string* out);

/// Appends `v` rendered exactly as printf("%.6g") renders it — the number
/// format of the JSON and CSV answer serialisers. std::to_chars (general,
/// precision 6) is specified by reference to printf, so the bytes match
/// without snprintf, locale or allocation.
void AppendDoubleG6(double v, std::string* out);

/// Formats a double with `digits` decimal places ("0.78").
std::string FormatDouble(double v, int digits);

/// Formats with thousands separators: 3600000 -> "3,600,000".
std::string FormatWithCommas(int64_t v);

/// Standard base64 (RFC 4648, with padding). Used for opaque wire tokens
/// such as the query-result resume cursors.
std::string Base64Encode(std::string_view s);

/// Decodes standard base64; InvalidArgument on bad characters, bad padding
/// or a truncated final group. Whitespace is not accepted.
Result<std::string> Base64Decode(std::string_view s);

/// Appends `s` as a complete JSON string token (RFC 8259): surrounding
/// double quotes, with quote, backslash and the C0 control characters
/// escaped. Bytes >= 0x20 other than `"` and `\` pass through untouched,
/// so UTF-8 survives verbatim; a string with nothing to escape is copied
/// in one append.
void AppendJsonQuoted(std::string_view s, std::string* out);

/// The body of AppendJsonQuoted's token, without the surrounding quotes.
std::string JsonEscape(std::string_view s);

/// AppendJsonQuoted into a fresh string.
std::string JsonQuote(std::string_view s);

}  // namespace scube

#endif  // SCUBE_COMMON_STRING_UTIL_H_
