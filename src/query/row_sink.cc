#include "query/row_sink.h"

#include "common/string_util.h"

namespace scube {
namespace query {

namespace {

/// Appends a CSV field, quoted (inner quotes doubled) when it contains a
/// comma, quote or newline.
void AppendCsvField(std::string_view s, std::string* out) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Appends `,"name":`, the lead-in of a JSON object member after the first.
void AppendJsonMember(std::string_view name, std::string* out) {
  out->push_back(',');
  AppendJsonQuoted(name, out);
  out->push_back(':');
}

}  // namespace

// --- VectorSink -------------------------------------------------------------

bool VectorSink::Begin(const ResultHeader& header) {
  static_cast<ResultHeader&>(result_) = header;
  return true;
}

bool VectorSink::Row(const ResultRow& row) {
  result_.rows.push_back(row);
  return true;
}

bool VectorSink::Row(ResultRow&& row) {
  result_.rows.push_back(std::move(row));
  return true;
}

void VectorSink::Finish(const ResultTrailer& trailer) {
  result_.cells_scanned = trailer.cells_scanned;
  result_.next_cursor = trailer.next_cursor;
}

// --- JsonWriter -------------------------------------------------------------

bool JsonWriter::Begin(const ResultHeader& header) {
  header_ = header;
  std::string& out = StartLine();
  out.append("{\"verb\":");
  AppendJsonQuoted(VerbToString(header.verb), &out);
  out.append(",\"by\":");
  AppendJsonQuoted(indexes::IndexKindToString(header.by), &out);
  out.append(",\"rows\":[");
  return WriteLine();
}

bool JsonWriter::Row(const ResultRow& row) {
  std::string& out = StartLine();
  if (!first_row_) out.push_back(',');
  first_row_ = false;
  out.append("{\"sa\":");
  AppendJsonQuoted(row.sa, &out);
  out.append(",\"ca\":");
  AppendJsonQuoted(row.ca, &out);
  out.append(",\"T\":");
  AppendDecimal(row.t, &out);
  out.append(",\"M\":");
  AppendDecimal(row.m, &out);
  out.append(",\"units\":");
  AppendDecimal(row.units, &out);
  out.append(",\"indexes\":{");
  bool first = true;
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonQuoted(indexes::IndexKindToString(kind), &out);
    out.push_back(':');
    if (row.defined) {
      AppendDoubleG6(row.indexes[static_cast<size_t>(kind)], &out);
    } else {
      out.append("null");
    }
  }
  out.push_back('}');
  if (header_.has_value) {
    out.append(",\"value\":");
    AppendDoubleG6(row.value, &out);
  }
  if (header_.has_aux) {
    AppendJsonMember(header_.aux_name, &out);
    AppendDoubleG6(row.aux, &out);
  }
  if (header_.has_aux2) {
    AppendJsonMember(header_.aux2_name, &out);
    AppendDoubleG6(row.aux2, &out);
  }
  if (header_.has_tag) {
    AppendJsonMember(header_.tag_name, &out);
    AppendJsonQuoted(row.tag, &out);
  }
  out.push_back('}');
  return WriteLine();
}

void JsonWriter::Finish(const ResultTrailer& trailer) {
  std::string& out = StartLine();
  out.append("],\"cells_scanned\":");
  AppendDecimal(trailer.cells_scanned, &out);
  if (!trailer.next_cursor.empty()) {
    out.append(",\"next_cursor\":");
    AppendJsonQuoted(trailer.next_cursor, &out);
  }
  out.push_back('}');
  WriteLine();
}

// --- CsvWriter --------------------------------------------------------------

bool CsvWriter::Begin(const ResultHeader& header) {
  header_ = header;
  std::string& out = StartLine();
  out.append("sa,ca,T,M,units");
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    out.push_back(',');
    out.append(indexes::IndexKindToString(kind));
  }
  // Verb-specific column names are written as they are, unquoted.
  if (header.has_value) out.append(",value");
  if (header.has_aux) out.append(",").append(header.aux_name);
  if (header.has_aux2) out.append(",").append(header.aux2_name);
  if (header.has_tag) out.append(",").append(header.tag_name);
  out.push_back('\n');
  return WriteLine();
}

bool CsvWriter::Row(const ResultRow& row) {
  std::string& out = StartLine();
  AppendCsvField(row.sa, &out);
  out.push_back(',');
  AppendCsvField(row.ca, &out);
  out.push_back(',');
  AppendDecimal(row.t, &out);
  out.push_back(',');
  AppendDecimal(row.m, &out);
  out.push_back(',');
  AppendDecimal(row.units, &out);
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    out.push_back(',');
    if (row.defined) {
      AppendDoubleG6(row.indexes[static_cast<size_t>(kind)], &out);
    }
  }
  if (header_.has_value) {
    out.push_back(',');
    AppendDoubleG6(row.value, &out);
  }
  if (header_.has_aux) {
    out.push_back(',');
    AppendDoubleG6(row.aux, &out);
  }
  if (header_.has_aux2) {
    out.push_back(',');
    AppendDoubleG6(row.aux2, &out);
  }
  if (header_.has_tag) {
    out.push_back(',');
    AppendCsvField(row.tag, &out);
  }
  out.push_back('\n');
  return WriteLine();
}

void CsvWriter::Finish(const ResultTrailer& trailer) {
  if (trailer.next_cursor.empty()) return;
  std::string& out = StartLine();
  out.append("# next_cursor: ").append(trailer.next_cursor).push_back('\n');
  WriteLine();
}

// --- replay -----------------------------------------------------------------

uint64_t ReplayResult(const QueryResult& result, RowSink& sink,
                      const ResultTrailer* trailer_override, bool* aborted) {
  uint64_t delivered = 0;
  bool stopped = !sink.Begin(result);
  if (!stopped) {
    for (const ResultRow& row : result.rows) {
      if (!sink.Row(row)) {
        stopped = true;
        break;
      }
      ++delivered;
    }
  }
  ResultTrailer trailer;
  if (trailer_override != nullptr) {
    trailer = *trailer_override;
  } else {
    trailer.cells_scanned = result.cells_scanned;
    trailer.next_cursor = result.next_cursor;
  }
  // A partially delivered stream has no valid resume point.
  if (stopped) trailer.next_cursor.clear();
  sink.Finish(trailer);
  if (aborted != nullptr) *aborted = stopped;
  return delivered;
}

// --- cursors ----------------------------------------------------------------

namespace {
constexpr char kCursorMagic[] = "scq1";
constexpr char kCursorSep = '|';

/// FNV-1a: stable across processes and library versions (std::hash is
/// not), so a cursor survives a server restart against the same cubes.
uint64_t Fnv1a(std::string_view s) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : s) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

uint64_t CursorQueryHash(const Query& query) {
  // The stream identity excludes pagination (carried by the cursor) and
  // the FROM pin (validated against the cursor's own cube/version).
  Query stripped = query;
  stripped.cube.clear();
  stripped.cube_version.reset();
  stripped.limit.reset();
  stripped.offset.reset();
  return Fnv1a(Canonical(stripped));
}

std::string EncodeCursor(const Cursor& cursor) {
  // The cube name goes LAST: it is the only field that may itself contain
  // the separator, so the decoder re-joins the tail instead of rejecting.
  std::string plain = std::string(kCursorMagic) + kCursorSep +
                      std::to_string(cursor.version) + kCursorSep +
                      std::to_string(cursor.position) + kCursorSep;
  AppendHexU64(cursor.query_hash, &plain);
  plain += kCursorSep;
  plain += cursor.cube;
  std::string token = Base64Encode(plain);
  // URL-safe alphabet (RFC 4648 base64url): tokens travel as ?cursor=
  // query parameters, where '+' would decode to a space and '/' can
  // confuse path-aware middleware.
  for (char& c : token) {
    if (c == '+') c = '-';
    if (c == '/') c = '_';
  }
  return token;
}

Result<Cursor> DecodeCursor(std::string_view token) {
  std::string standard(token);
  for (char& c : standard) {
    if (c == '-') c = '+';
    if (c == '_') c = '/';
  }
  auto plain = Base64Decode(standard);
  if (!plain.ok()) {
    return Status::InvalidArgument("malformed cursor: not base64");
  }
  std::vector<std::string> parts = Split(*plain, kCursorSep);
  if (parts.size() < 5 || parts[0] != kCursorMagic) {
    return Status::InvalidArgument("malformed cursor: bad layout");
  }
  Cursor cursor;
  // Re-join the tail: the cube name may legitimately contain '|'.
  cursor.cube = parts[4];
  for (size_t i = 5; i < parts.size(); ++i) {
    cursor.cube += kCursorSep;
    cursor.cube += parts[i];
  }
  if (cursor.cube.empty()) {
    return Status::InvalidArgument("malformed cursor: empty cube name");
  }
  auto version = ParseInt64(parts[1]);
  auto position = ParseInt64(parts[2]);
  if (!version.ok() || !position.ok() || *version <= 0 || *position < 0) {
    return Status::InvalidArgument("malformed cursor: bad version/position");
  }
  // The hash field is 16 hex digits (full uint64 range).
  if (parts[3].size() != 16) {
    return Status::InvalidArgument("malformed cursor: bad query hash");
  }
  auto hash = ParseHexU64(parts[3]);
  if (!hash.ok()) {
    return Status::InvalidArgument("malformed cursor: bad query hash");
  }
  cursor.version = static_cast<uint64_t>(*version);
  cursor.position = static_cast<uint64_t>(*position);
  cursor.query_hash = *hash;
  return cursor;
}

}  // namespace query
}  // namespace scube
