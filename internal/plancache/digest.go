package plancache

import (
	"hash/fnv"

	"gignite/internal/sql"
)

// Digest computes the cache key for a statement: sql.DigestTokens of its
// token stream — an FNV-64a hash with identifiers lower-cased, so queries
// that differ only in whitespace, comments or identifier case share a
// plan, and with leading EXPLAIN [ANALYZE] tokens stripped so EXPLAIN
// ANALYZE (which executes the query) shares the underlying query's cache
// entry. Literal text is hashed verbatim: two queries with different
// literals are different plans — parameter placeholders (`?`) are how
// callers opt into sharing across values.
//
// A parsed statement already carries this value (sql.SelectStmt.Digest),
// so the engine's lookup path does not lex the text a second time; this
// function is for callers that hold only the text.
func Digest(src string) uint64 {
	toks, err := sql.Lex(src)
	if err != nil {
		// Unlexable input cannot produce a plan; hash the raw text so the
		// caller still gets a stable key for its (failing) build attempt.
		h := fnv.New64a()
		h.Write([]byte(src))
		return h.Sum64()
	}
	return sql.DigestTokens(toks)
}
