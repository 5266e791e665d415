// Package sql implements the lexer, AST, and recursive-descent parser for
// the engine's SQL dialect, including the paper's extensions: the
// CREATE/DROP RECOMMENDER statements (§III-A) and the RECOMMEND ... TO ...
// ON ... USING ... clause in SELECT (§III-B).
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokSymbol // punctuation and operators: ( ) , . * = != <> < <= > >= + - / ;
)

// Token is one lexical token. Its line and column are not kept: a
// ParseError works them out from Pos, and only an error needs them.
type Token struct {
	Kind TokenKind
	// word is the keyword or symbol the token spells (wNone for any
	// other), so the parser matches by identity instead of by folding text.
	word word
	// float marks a TokNumber with a '.' or an exponent.
	float bool
	Text  string // raw text; for TokString, the unquoted value
	Pos   int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// ParseError is a syntax error with position information.
type ParseError struct {
	Msg  string
	Line int
	Col  int
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: syntax error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

// errorAt builds the ParseError for byte offset pos of src. Lines are
// counted from 1 at each '\n' and columns in bytes from 1.
func errorAt(src string, pos int, msg string) *ParseError {
	before := src[:pos]
	return &ParseError{
		Msg:  msg,
		Line: 1 + strings.Count(before, "\n"),
		Col:  pos - strings.LastIndexByte(before, '\n'),
	}
}

// word names every keyword and symbol the parser looks for. The lexer tags
// each identifier and symbol token with the word it spells, once, and the
// parser compares words.
type word uint8

const (
	wNone word = iota

	// Symbols, matched exactly.
	wLParen
	wRParen
	wComma
	wDot
	wStar
	wEq
	wNe     // <>
	wBangEq // !=
	wLt
	wLe
	wGt
	wGe
	wPlus
	wMinus
	wSlash
	wSemi

	// Keywords, matched case-insensitively (strings.EqualFold).
	wAnalyze
	wAnd
	wAs
	wAsc
	wBegin
	wBetween
	wBy
	wCommit
	wCreate
	wDelete
	wDesc
	wDistinct
	wDrop
	wExists
	wExplain
	wFalse
	wFrom
	wGroup
	wHaving
	wIf
	wIn
	wIndex
	wInner
	wInsert
	wInto
	wIs
	wItem
	wItems
	wJoin
	wKey
	wLike
	wLimit
	wNot
	wNull
	wOffset
	wOn
	wOr
	wOrder
	wPrimary
	wRatings
	wRecommend
	wRecommender
	wRollback
	wSelect
	wSet
	wStart
	wTable
	wTo
	wTransaction
	wTrue
	wUpdate
	wUsers
	wUsing
	wValues
	wWhere

	numWords
	firstKeyword = wAnalyze
)

// wordText spells each word as error messages quote it.
var wordText = [numWords]string{
	wLParen: "(", wRParen: ")", wComma: ",", wDot: ".", wStar: "*", wEq: "=",
	wNe: "<>", wBangEq: "!=", wLt: "<", wLe: "<=", wGt: ">", wGe: ">=",
	wPlus: "+", wMinus: "-", wSlash: "/", wSemi: ";",

	wAnalyze: "ANALYZE", wAnd: "AND", wAs: "AS", wAsc: "ASC", wBegin: "BEGIN",
	wBetween: "BETWEEN", wBy: "BY", wCommit: "COMMIT", wCreate: "CREATE",
	wDelete: "DELETE", wDesc: "DESC", wDistinct: "DISTINCT", wDrop: "DROP",
	wExists: "EXISTS", wExplain: "EXPLAIN", wFalse: "FALSE", wFrom: "FROM",
	wGroup: "GROUP", wHaving: "HAVING", wIf: "IF", wIn: "IN", wIndex: "INDEX",
	wInner: "INNER", wInsert: "INSERT", wInto: "INTO", wIs: "IS", wItem: "ITEM",
	wItems: "ITEMS", wJoin: "JOIN", wKey: "KEY", wLike: "LIKE", wLimit: "LIMIT",
	wNot: "NOT", wNull: "NULL", wOffset: "OFFSET", wOn: "ON", wOr: "OR",
	wOrder: "ORDER", wPrimary: "PRIMARY", wRatings: "RATINGS",
	wRecommend: "RECOMMEND", wRecommender: "RECOMMENDER", wRollback: "ROLLBACK",
	wSelect: "SELECT", wSet: "SET", wStart: "START", wTable: "TABLE", wTo: "TO",
	wTransaction: "TRANSACTION", wTrue: "TRUE", wUpdate: "UPDATE",
	wUsers: "USERS", wUsing: "USING", wValues: "VALUES", wWhere: "WHERE",
}

// reservedWord marks the words that cannot be an implicit alias
// (SELECT a b ..., FROM t x ...).
var reservedWord = [numWords]bool{
	wWhere: true, wRecommend: true, wOrder: true, wLimit: true, wGroup: true,
	wHaving: true, wOn: true, wUsing: true, wSet: true, wFrom: true, wTo: true,
	wAnd: true, wOr: true, wNot: true, wInner: true, wJoin: true,
	wValues: true, wAs: true, wAsc: true, wDesc: true, wIn: true, wIs: true,
	wLike: true, wBetween: true, wOffset: true, wSelect: true,
	wDistinct: true, wExplain: true,
}

var (
	// byInitial lists the keywords by their first letter, A to Z.
	byInitial [26][]word
	// reservedNames holds the reserved words in lower case, for an
	// identifier that is not ASCII (see aliasable).
	reservedNames = make(map[string]bool)
)

func init() {
	for w := firstKeyword; w < numWords; w++ {
		c := wordText[w][0] - 'A'
		byInitial[c] = append(byInitial[c], w)
		if reservedWord[w] {
			reservedNames[strings.ToLower(wordText[w])] = true
		}
	}
}

// identWord returns the keyword a quoted identifier spells, or wNone.
// Text that is not ASCII is compared with strings.EqualFold, whose Unicode
// folding the parser has always applied (the Kelvin sign folds to k, the
// long s to s).
func identWord(text string) word {
	if isASCII(text) {
		return asciiWord(text)
	}
	for w := firstKeyword; w < numWords; w++ {
		if strings.EqualFold(text, wordText[w]) {
			return w
		}
	}
	return wNone
}

// asciiWord returns the keyword ASCII text spells, or wNone: the text is
// compared with the two or three keywords of its initial, ignoring case.
func asciiWord(text string) word {
	if text == "" {
		return wNone
	}
	// Setting bit 5 lower-cases a letter and maps no other ASCII byte
	// onto one.
	c := text[0] | 0x20
	if c < 'a' || c > 'z' {
		return wNone
	}
next:
	for _, w := range byInitial[c-'a'] {
		kw := wordText[w]
		if len(kw) != len(text) {
			continue
		}
		for i := 1; i < len(kw); i++ {
			if text[i]|0x20 != kw[i]|0x20 {
				continue next
			}
		}
		return w
	}
	return wNone
}

// aliasable reports whether t may serve as an implicit alias: any
// identifier that is not a reserved word, reserved-ness judged on the
// identifier's strings.ToLower spelling.
func aliasable(t *Token) bool {
	if t.Kind != TokIdent {
		return false
	}
	if isASCII(t.Text) {
		return !reservedWord[t.word]
	}
	return !reservedNames[strings.ToLower(t.Text)]
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
