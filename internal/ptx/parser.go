package ptx

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// floatBits64 returns the IEEE-754 bit pattern of v.
func floatBits64(v float64) uint64 { return math.Float64bits(v) }

// maxDeclaredRegs bounds the counted register-declaration form ("%r<N>")
// so corrupt input cannot allocate an absurd RegTypes table.
const maxDeclaredRegs = 1 << 20

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ptx: line %d: %s", e.Line, e.Msg)
}

// parser holds parsing state for one module.
type parser struct {
	lines []string
	pos   int // current line index
	// srcs backs the Srcs of every instruction of the kernel being parsed;
	// each instruction's Srcs is cut from it with its capacity capped.
	srcs []Operand
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// ParseModule parses a PTX module in the dialect produced by PrintModule.
// It also tolerates the common nvcc spellings of the paper's listings
// (mul.lo.u32, mad.lo, div.rn, rcp.approx, sqrt.rn, ld.param, st.local, ...).
// Every name a kernel keeps (kernel, parameters, arrays, labels, branch
// targets, symbol operands) is copied out of src, so a parsed kernel never
// pins its source text.
func ParseModule(src string) (*Module, error) {
	p := &parser{lines: splitLines(src)}
	m := &Module{}
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		switch {
		case line == "" || strings.HasPrefix(line, "//"):
			p.pos++
		case strings.HasPrefix(line, ".version"):
			m.Version = strings.TrimSpace(strings.TrimPrefix(line, ".version"))
			p.pos++
		case strings.HasPrefix(line, ".target"):
			m.Target = strings.TrimSpace(strings.TrimPrefix(line, ".target"))
			p.pos++
		case strings.HasPrefix(line, ".address_size"):
			p.pos++
		case strings.Contains(line, ".entry"):
			k, err := p.parseKernel()
			if err != nil {
				return nil, err
			}
			m.Kernels = append(m.Kernels, k)
		default:
			return nil, p.errf("unexpected top-level line %q", line)
		}
	}
	return m, nil
}

// Parse parses a single kernel from source containing exactly one .entry.
func Parse(src string) (*Kernel, error) {
	m, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	if len(m.Kernels) != 1 {
		return nil, fmt.Errorf("ptx: expected exactly one kernel, found %d", len(m.Kernels))
	}
	return m.Kernels[0], nil
}

func splitLines(src string) []string {
	return strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n")
}

// validIdent reports whether s is a safe PTX identifier. The printer embeds
// kernel names verbatim in the ".entry name(" header, so characters that
// collide with the header grammar ('(', '{', whitespace) must be rejected
// at parse time or printed kernels would not re-parse.
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '$', c == '.':
		default:
			return false
		}
	}
	return true
}

// parseKernel parses ".visible .entry name ( params ) { body }".
func (p *parser) parseKernel() (*Kernel, error) {
	header := strings.TrimSpace(p.lines[p.pos])
	idx := strings.Index(header, ".entry")
	rest := strings.TrimSpace(header[idx+len(".entry"):])
	// Kernel name runs to '(' or end of line.
	name := rest
	if j := strings.IndexAny(rest, "( \t"); j >= 0 {
		name = rest[:j]
		rest = strings.TrimSpace(rest[j:])
	} else {
		rest = ""
	}
	if name == "" {
		return nil, p.errf("missing kernel name")
	}
	if !validIdent(name) {
		return nil, p.errf("bad kernel name %q", name)
	}
	k := NewKernel(strings.Clone(name))

	// Parameters: collect text between '(' and ')'.
	paramText := ""
	if strings.HasPrefix(rest, "(") {
		paramText = rest[1:]
	}
	if !strings.Contains(paramText, ")") {
		// The list spans lines: join them, one space apart.
		var b strings.Builder
		b.WriteString(paramText)
		for {
			p.pos++
			if p.pos >= len(p.lines) {
				return nil, p.errf("unterminated parameter list")
			}
			line := strings.TrimSpace(p.lines[p.pos])
			b.WriteByte(' ')
			b.WriteString(line)
			if strings.Contains(line, ")") {
				break
			}
		}
		paramText = b.String()
	}
	paramText = paramText[:strings.Index(paramText, ")")]
	if n := strings.Count(paramText, ".param"); n > 0 {
		k.Params = make([]Param, 0, n)
	}
	for more := true; more; {
		var decl string
		decl, paramText, more = strings.Cut(paramText, ",")
		decl = strings.TrimSpace(decl)
		if decl == "" {
			continue
		}
		fields := strings.Fields(decl)
		// ".param" ".u64" "name"
		if len(fields) < 3 || fields[0] != ".param" {
			return nil, p.errf("bad parameter declaration %q", decl)
		}
		t, ok := TypeFromName(strings.TrimPrefix(fields[1], "."))
		if !ok {
			return nil, p.errf("bad parameter type %q", fields[1])
		}
		k.AddParam(strings.Clone(fields[len(fields)-1]), t)
	}
	// Advance past header line(s) to '{'.
	for p.pos < len(p.lines) && !strings.Contains(p.lines[p.pos], "{") {
		p.pos++
	}
	if p.pos >= len(p.lines) {
		return nil, p.errf("missing kernel body")
	}
	p.pos++ // skip '{' line

	insts, srcs, nregs := bodyCounts(p.lines[p.pos:])
	k.Insts = make([]Inst, 0, insts)
	p.srcs = make([]Operand, 0, srcs)
	regs := make(map[string]Reg, nregs) // register name -> id
	var pendingLabel string
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		switch {
		case line == "" || strings.HasPrefix(line, "//"):
			p.pos++
			continue
		case line == "}":
			p.pos++
			return k, nil
		case strings.HasPrefix(line, ".reg"):
			if err := p.parseRegDecl(k, regs, line); err != nil {
				return nil, err
			}
			p.pos++
			continue
		case strings.HasPrefix(line, ".local") || strings.HasPrefix(line, ".shared"):
			if err := p.parseArrayDecl(k, line); err != nil {
				return nil, err
			}
			p.pos++
			continue
		}
		// Label line: "name:" possibly followed by an instruction.
		if j := strings.Index(line, ":"); j >= 0 && !strings.ContainsAny(line[:j], " \t@%.[") {
			pendingLabel = strings.Clone(line[:j])
			line = strings.TrimSpace(line[j+1:])
			if line == "" {
				p.pos++
				continue
			}
		}
		in, err := p.parseInst(k, regs, line)
		if err != nil {
			return nil, err
		}
		in.Label = pendingLabel
		pendingLabel = ""
		k.Append(in)
		p.pos++
	}
	return nil, p.errf("unterminated kernel body")
}

// bodyCounts scans a kernel body up to its closing "}" and bounds what the
// parse will need: the instruction lines, the commas on them (each
// instruction has one source operand per top-level comma, at most) and the
// registers the ".reg" lines list.
func bodyCounts(lines []string) (insts, srcs, regs int) {
	for _, line := range lines {
		line = strings.TrimSpace(line)
		switch {
		case line == "}":
			return
		case line == "" || strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, ".reg"):
			regs += strings.Count(line, ",") + 1
		case strings.HasPrefix(line, ".") || line[len(line)-1] == ':':
			// An array declaration or a label on a line of its own.
		default:
			insts++
			srcs += strings.Count(line, ",")
		}
	}
	return
}

// parseRegDecl handles ".reg .u32 %r0, %r3;" and the "<N>" counted form
// ".reg .u32 %r<5>;".
func (p *parser) parseRegDecl(k *Kernel, regs map[string]Reg, line string) error {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	// ".reg" ".u32" "%r0, %r3"
	_, rest, ok1 := strings.Cut(line, " ")
	tname, names, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 {
		return p.errf("bad register declaration %q", line)
	}
	t, ok := TypeFromName(strings.TrimPrefix(tname, "."))
	if !ok {
		return p.errf("bad register type %q", tname)
	}
	for more := true; more; {
		var name string
		name, names, more = strings.Cut(names, ",")
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if i := strings.Index(name, "<"); i >= 0 {
			// Counted form %r<N>: declares %r0 .. %r(N-1).
			j := strings.Index(name, ">")
			if j < i {
				return p.errf("bad counted register %q", name)
			}
			n, err := strconv.Atoi(name[i+1 : j])
			if err != nil {
				return p.errf("bad register count in %q", name)
			}
			// A register file is a few KB; a declaration beyond this bound
			// is corrupt input, not a real kernel (and would balloon the
			// RegTypes table).
			if n < 0 || n > maxDeclaredRegs {
				return p.errf("register count %d in %q out of range [0,%d]", n, name, maxDeclaredRegs)
			}
			prefix := name[:i]
			for c := 0; c < n; c++ {
				nm := prefix + strconv.Itoa(c)
				if _, dup := regs[nm]; dup {
					return p.errf("duplicate register %q", nm)
				}
				regs[nm] = k.NewReg(t)
			}
			continue
		}
		if _, dup := regs[name]; dup {
			return p.errf("duplicate register %q", name)
		}
		regs[name] = k.NewReg(t)
	}
	return nil
}

// parseArrayDecl handles ".local .align 4 .b8 SpillStack[16];".
func (p *parser) parseArrayDecl(k *Kernel, line string) error {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	fields := strings.Fields(line)
	sp, ok := SpaceFromName(strings.TrimPrefix(fields[0], "."))
	if !ok {
		return p.errf("bad array space %q", fields[0])
	}
	align := 4
	i := 1
	if i < len(fields) && fields[i] == ".align" {
		if i+1 >= len(fields) {
			return p.errf("missing alignment value in %q", line)
		}
		a, err := strconv.Atoi(fields[i+1])
		if err != nil {
			return p.errf("bad alignment %q", fields[i+1])
		}
		align = a
		i += 2
	}
	if i < len(fields) && strings.HasPrefix(fields[i], ".") {
		i++ // element type, always .b8 in our dialect
	}
	if i >= len(fields) {
		return p.errf("missing array name in %q", line)
	}
	nameSize := fields[i]
	j := strings.Index(nameSize, "[")
	j2 := strings.Index(nameSize, "]")
	if j < 0 || j2 < j {
		return p.errf("bad array declarator %q", nameSize)
	}
	size, err := strconv.ParseInt(nameSize[j+1:j2], 10, 64)
	if err != nil {
		return p.errf("bad array size in %q", nameSize)
	}
	if size < 0 {
		return p.errf("negative array size in %q", nameSize)
	}
	k.AddArray(ArrayDecl{Name: strings.Clone(nameSize[:j]), Space: sp, Align: align, Size: size})
	return nil
}

// ignorable instruction modifiers accepted and discarded while parsing
// mnemonics (rounding/precision modifiers that don't change our semantics).
var ignoredModifiers = map[string]bool{
	"rn": true, "rz": true, "rm": true, "rp": true,
	"approx": true, "full": true, "ftz": true, "sat": true,
	"wide": true, "sync": true, "uni": true,
}

// parseInst parses one instruction statement (without label). Its source
// operands are appended to p.srcs.
func (p *parser) parseInst(k *Kernel, regs map[string]Reg, line string) (Inst, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	in := Inst{Guard: NoReg}

	// Guard predicate "@%p0 " or "@!%p0 ".
	if strings.HasPrefix(line, "@") {
		sp := indexSpace(line)
		if sp < 0 {
			return in, p.errf("guard without instruction in %q", line)
		}
		g := line[1:sp]
		if strings.HasPrefix(g, "!") {
			in.GuardNeg = true
			g = g[1:]
		}
		r, ok := regs[g]
		if !ok {
			return in, p.errf("unknown guard register %q", g)
		}
		in.Guard = r
		line = strings.TrimSpace(line[sp:])
	}

	// Split mnemonic from operands.
	sp := indexSpace(line)
	mnemonic := line
	operands := ""
	if sp >= 0 {
		mnemonic = line[:sp]
		operands = strings.TrimSpace(line[sp:])
	}

	opName, suffixes, more := strings.Cut(mnemonic, ".")
	if opName == "bar" {
		in.Op = OpBar
		return in, nil
	}
	op, ok := OpcodeFromName(opName)
	if !ok {
		return in, p.errf("unknown opcode %q", opName)
	}
	in.Op = op

	// Interpret suffixes: types, modifiers, comparison (setp), state space
	// (ld/st). No spelling is in two of these sets.
	var types [2]Type
	ntypes := 0
	for more {
		var suf string
		suf, suffixes, more = strings.Cut(suffixes, ".")
		if t, ok := TypeFromName(suf); ok {
			if ntypes < len(types) {
				types[ntypes] = t
			}
			ntypes++
			continue
		}
		if suf == "lo" || ignoredModifiers[suf] {
			continue
		}
		if suf == "cg" && (op == OpLd || op == OpSt) {
			in.Bypass = true
			continue
		}
		if suf == "ca" && (op == OpLd || op == OpSt) {
			continue // cache-all is the default policy
		}
		if op == OpSetp {
			if c, ok := CmpFromName(suf); ok {
				in.Cmp = c
				continue
			}
		}
		if op == OpLd || op == OpSt {
			if s, ok := SpaceFromName(suf); ok {
				in.Space = s
				continue
			}
		}
		return in, p.errf("unknown suffix %q in %q", suf, mnemonic)
	}
	switch {
	case op == OpCvt:
		// cvt needs both a destination and a source type: the printer
		// cannot re-emit a conversion whose source type is unknown.
		if ntypes != 2 {
			return in, p.errf("cvt needs two types in %q", mnemonic)
		}
		in.Type, in.CvtFrom = types[0], types[1]
	case ntypes >= 1:
		in.Type = types[0]
	}
	if op == OpSetp && in.Cmp == CmpNone {
		return in, p.errf("setp without comparison in %q", mnemonic)
	}
	if (op == OpLd || op == OpSt) && in.Space == SpaceNone {
		return in, p.errf("%s without state space in %q", opName, mnemonic)
	}

	switch op {
	case OpBra:
		in.Target = strings.Clone(strings.TrimSpace(operands))
		return in, nil
	case OpRet, OpExit, OpNop:
		return in, nil
	}

	// The first operand is Dst (the destination, or st's address), the
	// rest are Srcs.
	start := len(p.srcs)
	n := 0
	for more := true; more; n++ {
		var tok string
		tok, operands, more = cutOperand(operands)
		if !more && tok == "" {
			break // nothing, or nothing after a trailing comma
		}
		o, err := p.parseOperand(k, regs, tok)
		if err != nil {
			return in, err
		}
		if n == 0 {
			in.Dst = o
		} else {
			p.srcs = append(p.srcs, o)
		}
	}
	if n == 0 {
		return in, p.errf("instruction %q has no operands", line)
	}
	end := len(p.srcs)
	in.Srcs = p.srcs[start:end:end]
	return in, nil
}

// cutOperand cuts s around its first top-level comma (one outside
// brackets, so "[b+4]" stays whole) and returns the trimmed operand before
// it, the text after it, and whether there was one.
func cutOperand(s string) (tok, rest string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(s[:i]), s[i+1:], true
			}
		}
	}
	return strings.TrimSpace(s), "", false
}

// indexSpace returns the index of the first space or tab in s, or -1.
func indexSpace(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return i
		}
	}
	return -1
}

// specialLead marks the bytes that follow the '%' of a special-register
// name, so a register operand skips the special-name lookup.
var specialLead = func() (lead [256]bool) {
	for _, n := range specialNames {
		lead[n[1]] = true
	}
	return lead
}()

// declaredName returns the kernel's own copy of a parameter or array name
// equal to s, so symbol operands share their declaration's string.
func declaredName(k *Kernel, s string) (string, bool) {
	if p, ok := k.Param(s); ok {
		return p.Name, true
	}
	if d, ok := k.Array(s); ok {
		return d.Name, true
	}
	return "", false
}

func (p *parser) parseOperand(k *Kernel, regs map[string]Reg, tok string) (Operand, error) {
	switch {
	case tok == "":
		return Operand{}, p.errf("empty operand")
	case strings.HasPrefix(tok, "["):
		inner := strings.TrimSuffix(strings.TrimPrefix(tok, "["), "]")
		base := inner
		off := int64(0)
		if j := strings.LastIndexAny(inner, "+-"); j > 0 {
			v, err := strconv.ParseInt(strings.TrimSpace(inner[j:]), 10, 64)
			if err == nil {
				off = v
				base = strings.TrimSpace(inner[:j])
			}
		}
		if strings.HasPrefix(base, "%") {
			r, ok := regs[base]
			if !ok {
				return Operand{}, p.errf("unknown address register %q", base)
			}
			return MemReg(r, off), nil
		}
		if name, ok := declaredName(k, base); ok {
			return MemSym(name, off), nil
		}
		return MemSym(strings.Clone(base), off), nil
	case strings.HasPrefix(tok, "%"):
		if len(tok) > 1 && specialLead[tok[1]] {
			if s, ok := SpecialFromName(tok); ok {
				return Spec(s), nil
			}
		}
		r, ok := regs[tok]
		if !ok {
			return Operand{}, p.errf("unknown register %q", tok)
		}
		return R(r), nil
	case strings.HasPrefix(tok, "0F") || strings.HasPrefix(tok, "0f"):
		bits, err := strconv.ParseUint(tok[2:], 16, 32)
		if err != nil {
			return Operand{}, p.errf("bad f32 literal %q", tok)
		}
		return FImm(float64(math.Float32frombits(uint32(bits)))), nil
	case strings.HasPrefix(tok, "0D") || strings.HasPrefix(tok, "0d"):
		bits, err := strconv.ParseUint(tok[2:], 16, 64)
		if err != nil {
			return Operand{}, p.errf("bad f64 literal %q", tok)
		}
		return FImm(math.Float64frombits(bits)), nil
	default:
		if v, err := strconv.ParseInt(tok, 0, 64); err == nil {
			return Imm(v), nil
		}
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			return FImm(v), nil
		}
		// Bare identifier: address-of symbol (mov %rd, SpillStack).
		if name, ok := declaredName(k, tok); ok {
			return Sym(name), nil
		}
		return Operand{}, p.errf("unknown operand %q", tok)
	}
}
