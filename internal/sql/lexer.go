package sql

import (
	"fmt"
	"strings"
)

// Lex splits input into tokens. Identifiers keep their original case (the
// parser compares keywords case-insensitively); unquoted ones are ASCII
// letters, digits and underscores — the input is scanned a byte at a time,
// and a byte past 0x7f is a fragment of a character, not a letter. Strings use single quotes
// with ” as the escape for a literal quote. Line comments start with --.
func Lex(input string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	n := len(input)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if input[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += k
	}
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				advance(1)
			}
		case isIdentStart(c):
			start, sl, sc := i, line, col
			for i < n && isIdentPart(input[i]) {
				advance(1)
			}
			toks = append(toks, Token{Kind: TokIdent, Text: input[start:i], Pos: start, Line: sl, Col: sc})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start, sl, sc := i, line, col
			seenDot, seenExp := false, false
			for i < n {
				ch := input[i]
				if ch >= '0' && ch <= '9' {
					advance(1)
				} else if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					advance(1)
				} else if (ch == 'e' || ch == 'E') && !seenExp && i+1 < n &&
					(input[i+1] >= '0' && input[i+1] <= '9' || input[i+1] == '+' || input[i+1] == '-') {
					seenExp = true
					advance(2)
				} else {
					break
				}
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start, Line: sl, Col: sc})
		case c == '\'':
			start, sl, sc := i, line, col
			advance(1)
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						advance(2)
						continue
					}
					advance(1)
					closed = true
					break
				}
				sb.WriteByte(input[i])
				advance(1)
			}
			if !closed {
				return nil, &ParseError{Msg: "unterminated string literal", Line: sl, Col: sc}
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start, Line: sl, Col: sc})
		case c == '"':
			// Double-quoted identifier.
			start, sl, sc := i, line, col
			advance(1)
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return nil, &ParseError{Msg: "unterminated quoted identifier", Line: sl, Col: sc}
			}
			text := input[i : i+j]
			advance(j + 1)
			toks = append(toks, Token{Kind: TokIdent, Text: text, Pos: start, Line: sl, Col: sc})
		default:
			start, sl, sc := i, line, col
			var sym string
			switch {
			case strings.HasPrefix(input[i:], "<="), strings.HasPrefix(input[i:], ">="),
				strings.HasPrefix(input[i:], "<>"), strings.HasPrefix(input[i:], "!="):
				sym = input[i : i+2]
			case strings.ContainsRune("()*,.=<>+-/;", rune(c)):
				sym = string(c)
			default:
				return nil, &ParseError{Msg: fmt.Sprintf("unexpected character %q", c), Line: sl, Col: sc}
			}
			advance(len(sym))
			toks = append(toks, Token{Kind: TokSymbol, Text: sym, Pos: start, Line: sl, Col: sc})
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n, Line: line, Col: col})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
