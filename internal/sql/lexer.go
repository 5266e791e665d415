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
	n := len(input)
	// Tokens average two bytes or more with the separators between them
	// (only something like "1,2,3" averages less), so this one allocation
	// holds every token of nearly every statement.
	toks := make([]Token, 0, n/2+2)
	i := 0
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			if j := strings.IndexByte(input[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = n
			}
		case isIdentStart(c):
			start := i
			for i < n && identPart[input[i]] {
				i++
			}
			text := input[start:i]
			toks = append(toks, Token{Kind: TokIdent, word: asciiWord(text), Text: text, Pos: start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			seenDot, seenExp := false, false
			for i < n {
				ch := input[i]
				if ch >= '0' && ch <= '9' {
					i++
				} else if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
				} else if (ch == 'e' || ch == 'E') && !seenExp && i+1 < n &&
					(input[i+1] >= '0' && input[i+1] <= '9' || input[i+1] == '+' || input[i+1] == '-') {
					seenExp = true
					i += 2
				} else {
					break
				}
			}
			toks = append(toks, Token{Kind: TokNumber, float: seenDot || seenExp, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			text, end, ok := lexString(input, i+1)
			if !ok {
				return nil, errorAt(input, start, "unterminated string literal")
			}
			i = end
			toks = append(toks, Token{Kind: TokString, Text: text, Pos: start})
		case c == '"':
			// Double-quoted identifier.
			start := i
			j := strings.IndexByte(input[i+1:], '"')
			if j < 0 {
				return nil, errorAt(input, start, "unterminated quoted identifier")
			}
			text := input[i+1 : i+1+j]
			i += j + 2
			// The parser has always matched keywords and symbols against an
			// identifier's text however it was written, so "(" in double
			// quotes still reads as a parenthesis.
			w := identWord(text)
			if len(text) == 1 || len(text) == 2 {
				if sym, size := symbolAt(text, 0); size == len(text) {
					w = sym
				}
			}
			toks = append(toks, Token{Kind: TokIdent, word: w, Text: text, Pos: start})
		default:
			w, size := symbolAt(input, i)
			if w == wNone {
				return nil, errorAt(input, i, fmt.Sprintf("unexpected character %q", c))
			}
			toks = append(toks, Token{Kind: TokSymbol, word: w, Text: input[i : i+size], Pos: i})
			i += size
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

// lexString scans a single-quoted literal whose body starts at i and
// returns its value and the offset just past the closing quote. A literal
// without a doubled quote is a substring of the input.
func lexString(input string, i int) (text string, end int, ok bool) {
	start := i
	for i < len(input) {
		if input[i] == '\'' {
			if i+1 < len(input) && input[i+1] == '\'' {
				break // an escape: build the value
			}
			return input[start:i], i + 1, true
		}
		i++
	}
	var sb strings.Builder
	sb.WriteString(input[start:i])
	for i < len(input) {
		if input[i] == '\'' {
			if i+1 < len(input) && input[i+1] == '\'' {
				sb.WriteByte('\'')
				i += 2
				continue
			}
			return sb.String(), i + 1, true
		}
		sb.WriteByte(input[i])
		i++
	}
	return "", 0, false
}

// symbolAt returns the symbol at input[i] and its length in bytes, or
// wNone when the byte starts none.
func symbolAt(input string, i int) (word, int) {
	var next byte
	if i+1 < len(input) {
		next = input[i+1]
	}
	switch input[i] {
	case '(':
		return wLParen, 1
	case ')':
		return wRParen, 1
	case ',':
		return wComma, 1
	case '.':
		return wDot, 1
	case '*':
		return wStar, 1
	case '=':
		return wEq, 1
	case '+':
		return wPlus, 1
	case '-':
		return wMinus, 1
	case '/':
		return wSlash, 1
	case ';':
		return wSemi, 1
	case '<':
		switch next {
		case '=':
			return wLe, 2
		case '>':
			return wNe, 2
		}
		return wLt, 1
	case '>':
		if next == '=' {
			return wGe, 2
		}
		return wGt, 1
	case '!':
		if next == '=' {
			return wBangEq, 2
		}
	}
	return wNone, 0
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// identPart is isIdentPart as a table, for the lexer's inner loop.
var identPart = func() (t [256]bool) {
	for c := range t {
		t[c] = isIdentPart(byte(c))
	}
	return t
}()
