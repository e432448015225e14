// SCubeQL parser: text -> Query AST.
//
// Grammar (keywords case-insensitive; values may be 'quoted' for spaces):
//
//   query      := verb [FROM ident ['@' int]] [where] [order] [LIMIT int]
//   verb       := SLICE coords | DICE coords
//              | ROLLUP [coords] | DRILLDOWN [coords]
//              | TOPK int BY index
//              | SURPRISES [BY index] [MINDELTA num]
//              | REVERSALS [BY index] [MINGAP num]
//   coords     := part [ '|' part ]
//   part       := ('sa' | 'ca') '=' assign ('&' assign)*
//   assign     := ident '=' value
//   where      := WHERE cond (AND cond)*
//   cond       := ('T' | 'M') '>=' int
//   order      := ORDER BY key [ASC | DESC]
//   key        := 'T' | 'M' | index
//   index      := dissimilarity | gini | information | isolation
//              | interaction | atkinson
//
// MINDELTA / MINGAP take any finite number (strtod syntax); "nan", "inf"
// and overflowing literals are rejected.
//
// Errors carry the column of the offending token, e.g.
//   ParseError: col 18: expected '=' after attribute 'region', got '&'

#ifndef SCUBE_QUERY_PARSER_H_
#define SCUBE_QUERY_PARSER_H_

#include <string>

#include "common/result.h"
#include "query/ast.h"

namespace scube {
namespace query {

/// Parses one SCubeQL query. ParseError with column context on bad input.
Result<Query> Parse(const std::string& text);

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_PARSER_H_
