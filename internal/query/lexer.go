package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"cqjoin/internal/relation"
)

// tokenKind classifies lexer tokens for the SQL subset.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators: , . ( ) + - * / = != < <= > >=
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex splits a query string into tokens. Identifiers are case-preserving;
// keyword matching happens case-insensitively in the parser. String
// literals accept single or double quotes. The input is read as UTF-8, an
// identifier by relation.IdentStart and IdentPart: a schema name NewSchema
// accepts is one this lexer reads whole.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(c):
			i += size
		case c == '\'' || c == '"':
			quote := input[i]
			j := i + 1
			for j < len(input) && input[j] != quote {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("query: unterminated string literal at offset %d", i)
			}
			toks = append(toks, token{kind: tokString, text: input[i+1 : j], pos: i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(input) && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			text := input[i:j]
			n, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("query: bad number %q at offset %d", text, i)
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: n, pos: i})
			i = j
		case relation.IdentStart(c):
			j := i + size
			for j < len(input) {
				r, n := utf8.DecodeRuneInString(input[j:])
				if !relation.IdentPart(r) {
					break
				}
				j += n
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		case strings.ContainsRune("!<>", c):
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("query: stray '!' at offset %d", i)
			} else {
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
			}
		case strings.ContainsRune(",.()+-*/=", c):
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}
