// Package awkx implements the `gawk` offloadable executable of the
// CompStor evaluation: an AWK interpreter — a program is parsed, then
// compiled to closures (compile.go) — with fields, pattern-action rules,
// associative arrays, user functions, and the classic string/number
// builtins. Regular expressions reuse the grepx NFA engine.
//
// Supported language: BEGIN/END and expression//regex/ patterns; print and
// printf (with > "file" redirection); if/else, while, do, for, for-in,
// break, continue, next, exit, return, delete; arithmetic, comparison,
// logical, match (~, !~), ternary, concatenation, in; ++/--, compound
// assignment; $n fields with NF/NR/FS/OFS/ORS/FILENAME/SUBSEP;
// length/substr/index/split/sub/gsub/match/sprintf/toupper/tolower/
// int/sqrt/exp/log/sin/cos/atan2/rand/srand; `getline [var] < file`.
// Omitted (not needed by the workloads): getline from the main input or
// pipes, range patterns, RS other than newline.
package awkx

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNumber
	tString
	tRegex
	tIdent
	tFuncName // identifier immediately followed by '(' (call, no space)
	tBuiltin  // builtin function name
	tKeyword
	tOp
	tNewline
)

type token struct {
	kind tokKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "EOF"
	case tNewline:
		return "newline"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]bool{
	"BEGIN": true, "END": true, "function": true, "if": true, "else": true,
	"while": true, "for": true, "do": true, "break": true, "continue": true,
	"next": true, "exit": true, "return": true, "delete": true, "in": true,
	"getline": true,
	"print":   true, "printf": true,
}

type lexer struct {
	src       string
	pos       int
	toks      []token
	lastValue bool // last significant token could end an operand ('/' is division)
}

// lex tokenizes an AWK program.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("awk: syntax error at offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip blanks, comments, and line continuations.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\r' {
			l.pos++
			continue
		}
		if c == '\\' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n' {
			l.pos += 2
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	if c == '\n' {
		l.pos++
		l.lastValue = false
		return token{kind: tNewline, text: "\n", pos: start}, nil
	}
	if c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])) {
		return l.lexNumber()
	}
	if isIdentStart(c) {
		return l.lexIdent()
	}
	if c == '"' {
		return l.lexString()
	}
	if c == '/' && !l.lastValue {
		return l.lexRegex()
	}
	return l.lexOp()
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdent(c byte) bool      { return isIdentStart(c) || isDigit(c) }

// lexNumber takes the longest number at the cursor, by the grammar strings
// convert with (scanNumber); the caller saw a digit, so there is one.
func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	_, end := scanNumber(l.src[start:])
	l.pos += end
	text := l.src[start:l.pos]
	l.lastValue = true
	return token{kind: tNumber, text: text, num: numPrefix(text), pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdent(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	switch {
	case keywords[text]:
		l.lastValue = false
		return token{kind: tKeyword, text: text, pos: start}, nil
	case builtins[text] != nil:
		l.lastValue = false
		return token{kind: tBuiltin, text: text, pos: start}, nil
	}
	// Function-call name: identifier directly followed by '('.
	if l.pos < len(l.src) && l.src[l.pos] == '(' {
		l.lastValue = false
		return token{kind: tFuncName, text: text, pos: start}, nil
	}
	l.lastValue = true
	return token{kind: tIdent, text: text, pos: start}, nil
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			l.lastValue = true
			return token{kind: tString, text: sb.String(), pos: start}, nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated string")
			}
			// \n \t \r \\ \" \/ are the character; any other escape stays as written.
			if i := strings.IndexByte(`ntr\"/`, l.src[l.pos]); i >= 0 {
				sb.WriteByte("\n\t\r\\\"/"[i])
			} else {
				sb.WriteString(l.src[l.pos-1 : l.pos+1])
			}
			l.pos++
		case '\n':
			return token{}, l.errf("newline in string")
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string")
}

func (l *lexer) lexRegex() (token, error) {
	start := l.pos
	l.pos++ // opening slash
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '/':
			l.pos++
			l.lastValue = true
			return token{kind: tRegex, text: sb.String(), pos: start}, nil
		case '\\':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
				sb.WriteByte('/')
				l.pos += 2
				continue
			}
			sb.WriteByte(c)
			l.pos++
		case '\n':
			return token{}, l.errf("newline in regex")
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated regex")
}

// twoCharOps are matched before the single characters.
var twoCharOps = []string{
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "^=", "!~", ">>",
}

func (l *lexer) lexOp() (token, error) {
	start := l.pos
	rest := l.src[l.pos:]
	for _, op := range twoCharOps {
		if strings.HasPrefix(rest, op) {
			l.pos += 2
			l.lastValue = op == "++" || op == "--" // post-inc leaves a value
			return token{kind: tOp, text: op, pos: start}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '{', '}', '(', ')', '[', ']', ';', ',', '+', '-', '*', '/', '%', '^',
		'<', '>', '=', '!', '~', '?', ':', '$', '&', '|':
		l.pos++
		l.lastValue = c == ')' || c == ']'
		return token{kind: tOp, text: string(c), pos: start}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}
