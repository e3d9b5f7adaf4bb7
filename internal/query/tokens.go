package query

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cqjoin/internal/relation"
)

// The token form of a query's text: what travels in its place (wire.
// Coder.Query), a stream of codes its receiver turns back into exactly that
// text against its own catalog (AppendText) and parses. Parse stays the one
// definition of what a query means, and a query costs its receiver what its
// text would: one parse, none on a memo hit. What the form saves is spelling —
// the catalog's names, the keywords, the spaces between words.
//
// Every token is a code byte, and what some codes have behind them. Codes 1
// to codeIdent-1 spell the word at their index in words. codeIdent and the
// literal codes are followed by the string they spell, codeAttr by a relation
// ordinal (relation.Catalog.Ordinal) and an attribute ordinal, uvarints: the
// attribute alone, as it follows an alias's ".". From codeRel on, a code
// names one of the first relsInByte relations of the catalog, 2·ordinal +
// form past codeRel: form 0 the relation's name, form 1 the name, "." and an
// attribute, whose ordinal in the relation follows; codeFar says the same of
// any relation, 2·ordinal + form in a uvarint behind it.
const (
	codeIdent  = 20 // an identifier the catalog does not name: an alias, a keyword in another case
	codeNumber = 21 // a number, in the digits it was written with
	codeSingle = 22 // a string between single quotes
	codeDouble = 23 // a string between double quotes
	codeAttr   = 24 // an attribute alone
	codeFar    = 25 // a relation past the first relsInByte
	codeRel    = 26 // the first of the one-byte relation codes

	relsInByte = (256 - codeRel) / 2
)

// The forms of a relation code.
const (
	formRel  = iota // the relation's name
	formCol         // Rel.attr, the dot unsaid
	formAttr        // the attribute alone (codeAttr)
)

var words = [codeIdent]string{1: "SELECT", "FROM", "WHERE", "AND", "AS", ",", ".", "(", ")", "+", "-", "*", "/", "=", "!=", "<", "<=", ">", ">="}

// wordCode returns the code of word, 0 for none: keywords only as written in
// capitals.
func wordCode(word string) byte {
	for c, w := range words {
		if w == word && c > 0 {
			return byte(c)
		}
	}
	return 0
}

// tokenForm returns the token form of the text p parsed, nil where that text
// does not rebuild from it byte for byte — spaced otherwise than AppendText
// spaces, say: such a query travels as its text. p has parsed the query, so
// its aliases hold every relation the text names.
func (p *parser) tokenForm() []byte {
	toks := p.toks[:len(p.toks)-1] // no EOF
	var onStack [128]byte
	out := onStack[:0]
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.kind {
		case tokIdent:
			if i+2 < len(toks) && toks[i+1].kind == tokSymbol && toks[i+1].text == "." && toks[i+2].kind == tokIdent {
				if s := p.aliases[t.text]; s != nil && s.HasAttr(toks[i+2].text) {
					ord, attr := p.catalog.Ordinal(s.Name()), uint64(s.AttrIndex(toks[i+2].text))
					if t.text == s.Name() {
						out = binary.AppendUvarint(appendRef(out, ord, formCol), attr)
					} else {
						out = append(appendLiteral(out, codeIdent, t.text), wordCode("."), codeAttr)
						out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(ord)), attr)
					}
					i += 2
					continue
				}
			}
			if c := wordCode(t.text); c > 0 {
				out = append(out, c)
			} else if ord := p.catalog.Ordinal(t.text); ord >= 0 {
				out = appendRef(out, ord, formRel)
			} else {
				out = appendLiteral(out, codeIdent, t.text)
			}
		case tokSymbol:
			out = append(out, wordCode(t.text))
		case tokNumber:
			out = appendLiteral(out, codeNumber, t.text)
		case tokString:
			code := byte(codeSingle)
			if p.text[t.pos] == '"' {
				code = codeDouble
			}
			out = appendLiteral(out, code, t.text)
		}
	}
	var buf [256]byte
	if text, err := AppendText(buf[:0], p.catalog, out); err != nil || string(text) != p.text {
		return nil
	}
	return append([]byte(nil), out...) // every copy of the query keeps it: no spare capacity
}

func appendRef(out []byte, ord, form int) []byte {
	if ord < relsInByte {
		return append(out, byte(codeRel+2*ord+form))
	}
	return binary.AppendUvarint(append(out, codeFar), uint64(2*ord+form))
}

func appendLiteral(out []byte, code byte, s string) []byte {
	return append(binary.AppendUvarint(append(out, code), uint64(len(s))), s...)
}

var errTruncatedTokens = errors.New("query: a token form ends inside a token")

// AppendText appends the text that token form tokens spells against catalog
// to dst: its words in order, one space between two, none before ",", "." or
// ")" and none after "(" or ".". It fails on a code no word has, a relation
// ordinal past the catalog, an attribute ordinal past its relation's arity and
// a stream that ends inside a token. A stream that passes spells some text;
// whether that is a query is Parse's to say.
func AppendText(dst []byte, catalog *relation.Catalog, tokens []byte) ([]byte, error) {
	glued := true // no space before the first word
	for len(tokens) > 0 {
		code := tokens[0]
		tokens = tokens[1:]
		var word string
		var literal []byte // aliases tokens
		var rel *relation.Schema
		form, ref, attr := formRel, uint64(0), uint64(0)
		var ok bool
		switch {
		case code == 0:
			return dst, fmt.Errorf("query: no token has code %d", code)
		case code < codeIdent:
			word = words[code]
		case code <= codeDouble:
			var size uint64
			if size, tokens, ok = uvarint(tokens); !ok || size > uint64(len(tokens)) {
				return dst, errTruncatedTokens
			}
			literal, tokens = tokens[:size], tokens[size:]
		case code == codeAttr:
			form = formAttr
			if ref, tokens, ok = uvarint(tokens); !ok {
				return dst, errTruncatedTokens
			}
		case code == codeFar:
			if ref, tokens, ok = uvarint(tokens); !ok {
				return dst, errTruncatedTokens
			}
			form, ref = int(ref%2), ref/2
		default:
			form, ref = int(code-codeRel)%2, uint64(code-codeRel)/2
		}
		if code >= codeAttr {
			if rel = catalog.At(int(min(ref, 1<<31))); rel == nil {
				return dst, fmt.Errorf("query: relation ordinal %d past a catalog of %d", ref, len(catalog.Schemas()))
			}
			if form != formRel {
				if attr, tokens, ok = uvarint(tokens); !ok {
					return dst, errTruncatedTokens
				}
				if attr >= uint64(rel.Arity()) {
					return dst, fmt.Errorf("query: attribute ordinal %d past %s's %d", attr, rel.Name(), rel.Arity())
				}
			}
		}
		if !glued && word != "," && word != "." && word != ")" {
			dst = append(dst, ' ')
		}
		glued = word == "(" || word == "."
		switch {
		case code == codeSingle:
			dst = append(append(append(dst, '\''), literal...), '\'')
		case code == codeDouble:
			dst = append(append(append(dst, '"'), literal...), '"')
		case rel == nil:
			dst = append(append(dst, word...), literal...)
		case form == formRel:
			dst = append(dst, rel.Name()...)
		case form == formCol:
			dst = append(append(append(dst, rel.Name()...), '.'), rel.Attr(int(attr))...)
		default:
			dst = append(dst, rel.Attr(int(attr))...)
		}
	}
	return dst, nil
}

// uvarint reads a uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}
