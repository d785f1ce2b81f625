package awkx

// AST node definitions.

// program is a parsed AWK program.
type program struct {
	begins []*stmtBlock
	ends   []*stmtBlock
	rules  []rule
	funcs  map[string]*funcDef
	// globals maps every global name the program mentions, and every
	// special variable, to its slot.
	globals map[string]int
}

// varSlot is where the interpreter keeps a variable: an index into the
// global tables or, for a name the enclosing function lists as a
// parameter, into the innermost frame. A name's scalar and its array
// share the index, in separate tables. The parser binds names as it meets
// them, which AWK allows because a function's parameters precede its body.
type varSlot struct {
	local bool
	idx   int
}

// Slots of the special variables, fixed so the interpreter reaches them
// without a lookup; the program's own globals follow.
const (
	slotNR = iota
	slotNF
	slotFS
	slotOFS
	slotORS
	slotSUBSEP
	slotFILENAME
	slotRSTART
	slotRLENGTH
	numSpecials
)

var specialNames = [numSpecials]string{"NR", "NF", "FS", "OFS", "ORS", "SUBSEP", "FILENAME", "RSTART", "RLENGTH"}

// rule is one pattern-action item.
type rule struct {
	pattern expr // nil = match every record
	action  *stmtBlock
}

type funcDef struct {
	name   string
	params []string
	body   *stmtBlock
	arrays []bool  // the parameters used as arrays, by body or by a function it calls
	calls  []*call // the calls in body
}

// Statements.

type stmt interface{ isStmt() }

type stmtBlock struct{ stmts []stmt }

type exprStmt struct{ e expr }

// printStmt is print, or with formatted printf.
type printStmt struct {
	args      []expr // empty = $0
	dest      expr   // optional > "file" target
	formatted bool
}

type ifStmt struct {
	cond       expr
	then, elze stmt
}

// loopStmt is while (cond only), do-while (cond, doWhile) or for.
type loopStmt struct {
	init, post stmt
	cond       expr // nil = true
	body       stmt
	doWhile    bool // cond is tested after the body
}

type forInStmt struct {
	v, arr varSlot
	body   stmt
}

type jumpStmt struct{ code ctl } // break, continue or next
type leaveStmt struct {          // exit or return
	code ctl
	val  expr // optional
}
type deleteStmt struct {
	arr   varSlot
	index []expr // nil = delete whole array
}

func (*stmtBlock) isStmt()  {}
func (*exprStmt) isStmt()   {}
func (*printStmt) isStmt()  {}
func (*ifStmt) isStmt()     {}
func (*loopStmt) isStmt()   {}
func (*forInStmt) isStmt()  {}
func (*jumpStmt) isStmt()   {}
func (*leaveStmt) isStmt()  {}
func (*deleteStmt) isStmt() {}

// Expressions.

type expr interface{ isExpr() }

type numLit struct{ v float64 }
type strLit struct{ v string }
type regexLit struct{ re *compiledRegex }

type varRef struct {
	name string // kept for the split-scan prover
	varSlot
}

type fieldRef struct{ idx expr }

type indexRef struct {
	arr   varSlot
	index []expr
}

type assign struct {
	op     string // "=", "+=", ...
	target expr   // varRef, fieldRef or indexRef
	val    expr
}

type incDec struct {
	op     string // "++" or "--"
	pre    bool
	target expr
}

type binary struct {
	op   string
	l, r expr
}

type unary struct {
	op string // "!" or "-" or "+"
	e  expr
}

type ternary struct {
	cond, a, b expr
}

type matchExpr struct {
	neg bool
	l   expr
	re  expr // regexLit or dynamic string
}

type inExpr struct {
	index []expr
	arr   varSlot
}

type call struct {
	name string
	args []expr
}

type builtinCall struct {
	name string
	args []expr
}

type groupExpr struct{ e expr }

// getlineExpr is `getline [lvalue] < src`: read one line from a file into
// the lvalue (or $0), yielding 1, 0 at EOF, or -1 on error.
type getlineExpr struct {
	target expr // nil = $0 (and NF/NR update)
	src    expr // file name expression
}

func (*numLit) isExpr()      {}
func (*strLit) isExpr()      {}
func (*regexLit) isExpr()    {}
func (*varRef) isExpr()      {}
func (*fieldRef) isExpr()    {}
func (*indexRef) isExpr()    {}
func (*assign) isExpr()      {}
func (*incDec) isExpr()      {}
func (*binary) isExpr()      {}
func (*unary) isExpr()       {}
func (*ternary) isExpr()     {}
func (*matchExpr) isExpr()   {}
func (*inExpr) isExpr()      {}
func (*call) isExpr()        {}
func (*builtinCall) isExpr() {}
func (*groupExpr) isExpr()   {}
func (*getlineExpr) isExpr() {}
