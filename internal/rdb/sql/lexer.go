// Package sql is the SQL front end of the rdb engine. Every statement it
// runs is generated inside MDV — by the filter engine (internal/core), the
// LMR cache (internal/repository), the query translator (internal/query) and
// the baseline workload — and the dialect is exactly what those issue:
//
//	CREATE TABLE t (col INT|FLOAT|TEXT|BOOL [PRIMARY KEY] [NOT NULL], ...)
//	CREATE [UNIQUE] INDEX i ON t (col, ...)
//	DROP TABLE [IF EXISTS] t
//	INSERT INTO t [(col, ...)] VALUES (expr, ...)
//	UPDATE t SET col = expr, ... [WHERE cond AND ...]
//	DELETE FROM t [WHERE cond AND ...]
//	SELECT [DISTINCT] * | [alias.]col, ... FROM t [alias], ...
//	    [WHERE cond AND ...] [ORDER BY [alias.]col, ...] [LIMIT n]
//
// An expr is a literal (number, 'string', TRUE, FALSE, NULL), a ? parameter,
// an [alias.]col reference, CAST(expr AS type), or a + or - of those on
// numbers. A cond is an expr, or two exprs compared with = != < <= > >= or
// CONTAINS (substring match, which the MDV rule language exposes). CAST lets
// the filter reconvert numeric constants stored as strings in the
// FilterRules tables (paper §3.3.4). A comparison with NULL is never true,
// and ORDER BY sorts ascending. Parse rejects everything else.
package sql

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkParam  // ?
	tkSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int    // byte offset in the input, for error messages
}

// keywords recognized by the lexer. Identifiers matching these
// (case-insensitively) become tkKeyword tokens with upper-cased text; every
// other word is an identifier.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true, "AND": true,
	"ORDER": true, "BY": true, "LIMIT": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"UNIQUE": true, "TABLE": true, "INDEX": true, "ON": true, "DROP": true,
	"IF": true, "EXISTS": true, "PRIMARY": true, "KEY": true, "NOT": true,
	"NULL": true, "TRUE": true, "FALSE": true, "CONTAINS": true, "CAST": true,
	"AS": true, "INT": true, "FLOAT": true, "TEXT": true, "BOOL": true,
}

// lex tokenizes the whole input up front; the parser then walks the slice,
// which always ends with a tkEOF token.
func lex(src string) ([]token, error) {
	var tokens []token
	pos := 0
	for {
		for pos < len(src) && strings.IndexByte(" \t\r\n", src[pos]) >= 0 {
			pos++
		}
		if pos == len(src) {
			return append(tokens, token{kind: tkEOF, pos: pos}), nil
		}
		start, c := pos, src[pos]
		var tok token
		switch {
		case c == '\'':
			var sb strings.Builder
			for pos++; ; pos++ {
				if pos == len(src) {
					return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
				}
				if src[pos] == '\'' {
					if pos+1 == len(src) || src[pos+1] != '\'' {
						break
					}
					pos++ // '' is an escaped quote
				}
				sb.WriteByte(src[pos])
			}
			pos++ // closing quote
			tok = token{kind: tkString, text: sb.String()}
		case isDigit(c):
			dot := false
			for pos < len(src) && (isDigit(src[pos]) || src[pos] == '.' && !dot) {
				dot = dot || src[pos] == '.'
				pos++
			}
			tok = token{kind: tkNumber, text: src[start:pos]}
		case isIdentStart(c):
			for pos < len(src) && (isIdentStart(src[pos]) || isDigit(src[pos])) {
				pos++
			}
			tok = token{kind: tkIdent, text: src[start:pos]}
			if upper := strings.ToUpper(tok.text); keywords[upper] {
				tok = token{kind: tkKeyword, text: upper}
			}
		case c == '?':
			pos++
			tok = token{kind: tkParam, text: "?"}
		default:
			if two := src[pos:min(pos+2, len(src))]; two == "<=" || two == ">=" || two == "!=" {
				tok = token{kind: tkSymbol, text: two}
			} else if strings.IndexByte("(),.*=<>+-", c) >= 0 {
				tok = token{kind: tkSymbol, text: string(c)}
			} else {
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			}
			pos += len(tok.text)
		}
		tok.pos = start
		tokens = append(tokens, tok)
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || c == '#' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
