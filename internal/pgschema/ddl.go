package pgschema

import (
	"fmt"
	"strconv"
	"strings"
)

// The DDL is the Figure 5 syntax with explicit statement keywords and IRI
// metadata clauses so that parsing it back recovers the full schema (this is
// what makes the schema transformation invertible, Prop. 4.1):
//
//	GRAPH TYPE LOOSE;
//	CREATE NODE TYPE (personType: Person {name STRING IRI "http://x/name"})
//	    CLASS "http://x/Person" SHAPE "http://x/shapes#Person";
//	CREATE NODE TYPE (studentType: Student {...}) EXTENDS personType ... ;
//	CREATE VALUE NODE TYPE (stringType: STRING) DATATYPE "...#string";
//	CREATE EDGE TYPE (:studentType)-[advisedByType: advisedBy IRI "http://x/advisedBy"]->
//	    (:personType | :professorType);
//	FOR (x: Student) COUNT 1.. OF T WITHIN (x)-[:advisedBy]->(T: {Person | Professor});

// WriteDDL serializes the schema.
func WriteDDL(s *Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GRAPH TYPE %s;\n\n", s.GraphType)
	for _, nt := range s.NodeTypes() {
		writeNodeType(&b, nt)
	}
	if len(s.EdgeTypes()) > 0 {
		b.WriteByte('\n')
	}
	for _, et := range s.EdgeTypes() {
		writeEdgeType(&b, et)
	}
	if len(s.Keys) > 0 {
		b.WriteByte('\n')
	}
	for _, k := range s.Keys {
		writeKey(&b, k)
	}
	return b.String()
}

func writeNodeType(b *strings.Builder, nt *NodeType) {
	if nt.Value {
		fmt.Fprintf(b, "CREATE VALUE NODE TYPE (%s: %s)", nt.Name, nt.Label)
		if nt.Datatype != "" {
			fmt.Fprintf(b, " DATATYPE %q", nt.Datatype)
		}
		b.WriteString(";\n")
		return
	}
	fmt.Fprintf(b, "CREATE NODE TYPE (%s: %s {", nt.Name, nt.Label)
	for i, p := range nt.Properties {
		if i > 0 {
			b.WriteString(", ")
		}
		writeProperty(b, p)
	}
	b.WriteString("})")
	if len(nt.Extends) > 0 {
		b.WriteString(" EXTENDS ")
		b.WriteString(strings.Join(nt.Extends, " & "))
	}
	if nt.ClassIRI != "" {
		fmt.Fprintf(b, " CLASS %q", nt.ClassIRI)
	}
	if nt.ShapeIRI != "" {
		fmt.Fprintf(b, " SHAPE %q", nt.ShapeIRI)
	}
	b.WriteString(";\n")
}

func writeProperty(b *strings.Builder, p *Property) {
	if p.Optional {
		b.WriteString("OPTIONAL ")
	}
	fmt.Fprintf(b, "%s %s", p.Key, p.Type)
	if p.Array {
		b.WriteString(" ARRAY {")
		if !(p.Min == 0 && p.Max == Unbounded) {
			fmt.Fprintf(b, "%d,", p.Min)
			if p.Max != Unbounded {
				fmt.Fprintf(b, "%d", p.Max)
			}
		}
		b.WriteString("}")
	}
	if p.IRI != "" {
		fmt.Fprintf(b, " IRI %q", p.IRI)
	}
}

func writeEdgeType(b *strings.Builder, et *EdgeType) {
	fmt.Fprintf(b, "CREATE EDGE TYPE (:%s)-[%s: %s", et.Source, et.Name, et.Label)
	if len(et.Properties) > 0 {
		b.WriteString(" {")
		for i, p := range et.Properties {
			if i > 0 {
				b.WriteString(", ")
			}
			writeProperty(b, p)
		}
		b.WriteString("}")
	}
	if et.IRI != "" {
		fmt.Fprintf(b, " IRI %q", et.IRI)
	}
	b.WriteString("]->(")
	for i, t := range et.Targets {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(":")
		if et.ShapeRef(i) {
			b.WriteString("!") // sh:node (shape reference) target
		}
		b.WriteString(t)
	}
	b.WriteString(");\n")
}

func writeKey(b *strings.Builder, k *Key) {
	max := ""
	if k.Max != Unbounded {
		max = strconv.Itoa(k.Max)
	}
	fmt.Fprintf(b, "FOR (x: %s) COUNT %d..%s OF T WITHIN (x)-[:%s]->(T: {%s});\n",
		k.SourceLabel, k.Min, max, k.EdgeLabel, strings.Join(k.TargetLabels, " | "))
}

// ParseDDL parses a schema previously produced by WriteDDL.
func ParseDDL(src string) (*Schema, error) {
	s := NewSchema()
	p := &ddlParser{lex: newLexer(src)}
	if err := p.parse(s); err != nil {
		return nil, err
	}
	return s, nil
}

type ddlParser struct {
	lex *lexer
}

func (p *ddlParser) parse(s *Schema) error {
	for {
		tok := p.lex.peek()
		switch {
		case tok.kind == tokEOF:
			return nil
		case tok.isWord("GRAPH"):
			p.lex.next()
			if err := p.expectWord("TYPE"); err != nil {
				return err
			}
			gt := p.lex.next()
			if gt.kind != tokWord {
				return p.errf("expected graph type name, got %q", gt.text)
			}
			s.GraphType = gt.text
			if err := p.expect(";"); err != nil {
				return err
			}
		case tok.isWord("CREATE"):
			if err := p.createStmt(s); err != nil {
				return err
			}
		case tok.isWord("FOR"):
			if err := p.keyStmt(s); err != nil {
				return err
			}
		default:
			return p.errf("unexpected token %q", tok.text)
		}
	}
}

func (p *ddlParser) createStmt(s *Schema) error {
	p.lex.next() // CREATE
	tok := p.lex.next()
	switch {
	case tok.isWord("VALUE"):
		if err := p.expectWord("NODE"); err != nil {
			return err
		}
		if err := p.expectWord("TYPE"); err != nil {
			return err
		}
		return p.valueNodeType(s)
	case tok.isWord("NODE"):
		if err := p.expectWord("TYPE"); err != nil {
			return err
		}
		return p.nodeType(s)
	case tok.isWord("EDGE"):
		if err := p.expectWord("TYPE"); err != nil {
			return err
		}
		return p.edgeType(s)
	default:
		return p.errf("expected NODE, VALUE, or EDGE after CREATE, got %q", tok.text)
	}
}

func (p *ddlParser) valueNodeType(s *Schema) error {
	if err := p.expect("("); err != nil {
		return err
	}
	name, err := p.word()
	if err != nil {
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	label, err := p.word()
	if err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	nt := &NodeType{Name: name, Label: label, Value: true}
	if p.lex.peek().isWord("DATATYPE") {
		p.lex.next()
		dt, err := p.quoted()
		if err != nil {
			return err
		}
		nt.Datatype = dt
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	s.AddNodeType(nt)
	return nil
}

func (p *ddlParser) nodeType(s *Schema) error {
	if err := p.expect("("); err != nil {
		return err
	}
	name, err := p.word()
	if err != nil {
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	// The node type of entities that have no rdf:type (yet) has the empty
	// label set: WriteDDL emits it as "(anonType:  {})".
	label := ""
	if !p.lex.peek().is("{") {
		if label, err = p.word(); err != nil {
			return err
		}
	}
	nt := &NodeType{Name: name, Label: label}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.lex.peek().is("}") {
		prop, err := p.property()
		if err != nil {
			return err
		}
		nt.Properties = append(nt.Properties, prop)
		if p.lex.peek().is(",") {
			p.lex.next()
		}
	}
	p.lex.next() // }
	if err := p.expect(")"); err != nil {
		return err
	}
	for {
		tok := p.lex.peek()
		switch {
		case tok.isWord("EXTENDS"):
			p.lex.next()
			for {
				parent, err := p.word()
				if err != nil {
					return err
				}
				nt.Extends = append(nt.Extends, parent)
				if !p.lex.peek().is("&") {
					break
				}
				p.lex.next()
			}
		case tok.isWord("CLASS"):
			p.lex.next()
			v, err := p.quoted()
			if err != nil {
				return err
			}
			nt.ClassIRI = v
		case tok.isWord("SHAPE"):
			p.lex.next()
			v, err := p.quoted()
			if err != nil {
				return err
			}
			nt.ShapeIRI = v
		case tok.is(";"):
			p.lex.next()
			s.AddNodeType(nt)
			return nil
		default:
			return p.errf("unexpected token %q in node type", tok.text)
		}
	}
}

func (p *ddlParser) property() (*Property, error) {
	prop := &Property{Max: Unbounded}
	if p.lex.peek().isWord("OPTIONAL") {
		p.lex.next()
		prop.Optional = true
	}
	key, err := p.word()
	if err != nil {
		return nil, err
	}
	prop.Key = key
	typ, err := p.word()
	if err != nil {
		return nil, err
	}
	prop.Type = typ
	if p.lex.peek().isWord("ARRAY") {
		p.lex.next()
		prop.Array = true
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		prop.Min, prop.Max = 0, Unbounded
		if !p.lex.peek().is("}") {
			min, err := p.number()
			if err != nil {
				return nil, err
			}
			prop.Min = min
			if err := p.expect(","); err != nil {
				return nil, err
			}
			if !p.lex.peek().is("}") {
				max, err := p.number()
				if err != nil {
					return nil, err
				}
				prop.Max = max
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
	} else {
		prop.Min, prop.Max = 0, 1
		if !prop.Optional {
			prop.Min = 1
		}
	}
	if p.lex.peek().isWord("IRI") {
		p.lex.next()
		v, err := p.quoted()
		if err != nil {
			return nil, err
		}
		prop.IRI = v
	}
	return prop, nil
}

func (p *ddlParser) edgeType(s *Schema) error {
	if err := p.expect("("); err != nil {
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	src, err := p.word()
	if err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	for _, want := range []string{"-", "["} {
		if err := p.expect(want); err != nil {
			return err
		}
	}
	name, err := p.word()
	if err != nil {
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	label, err := p.word()
	if err != nil {
		return err
	}
	et := &EdgeType{Name: name, Label: label, Source: src}
	if p.lex.eatPunctTok("{") {
		for !p.lex.peek().is("}") {
			prop, err := p.property()
			if err != nil {
				return err
			}
			et.Properties = append(et.Properties, prop)
			if p.lex.peek().is(",") {
				p.lex.next()
			}
		}
		p.lex.next() // }
	}
	if p.lex.peek().isWord("IRI") {
		p.lex.next()
		v, err := p.quoted()
		if err != nil {
			return err
		}
		et.IRI = v
	}
	for _, want := range []string{"]", "-", ">", "("} {
		if err := p.expect(want); err != nil {
			return err
		}
	}
	// A fallback edge type whose targets the data has not revealed yet
	// serializes with an empty alternative list "()"; accept it so extended
	// schemas always round-trip.
	for !p.lex.peek().is(")") {
		if err := p.expect(":"); err != nil {
			return err
		}
		shapeRef := false
		if p.lex.peek().is("!") {
			p.lex.next()
			shapeRef = true
		}
		target, err := p.word()
		if err != nil {
			return err
		}
		et.Targets = append(et.Targets, target)
		if shapeRef {
			for len(et.ShapeRefs) < len(et.Targets)-1 {
				et.ShapeRefs = append(et.ShapeRefs, false)
			}
			et.ShapeRefs = append(et.ShapeRefs, true)
		}
		if !p.lex.peek().is("|") {
			break
		}
		p.lex.next()
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	s.AddEdgeType(et)
	return nil
}

func (p *ddlParser) keyStmt(s *Schema) error {
	p.lex.next() // FOR
	if err := p.expect("("); err != nil {
		return err
	}
	if _, err := p.word(); err != nil { // variable
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	srcLabel, err := p.word()
	if err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	if err := p.expectWord("COUNT"); err != nil {
		return err
	}
	min, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expect(".."); err != nil {
		return err
	}
	max := Unbounded
	if p.lex.peek().kind == tokNumber {
		max, err = p.number()
		if err != nil {
			return err
		}
	}
	if err := p.expectWord("OF"); err != nil {
		return err
	}
	if _, err := p.word(); err != nil { // target variable
		return err
	}
	if err := p.expectWord("WITHIN"); err != nil {
		return err
	}
	for _, want := range []string{"(", ")"} { // (x)
		if err := p.expect(want); err != nil {
			return err
		}
		if want == "(" {
			if _, err := p.word(); err != nil {
				return err
			}
		}
	}
	for _, want := range []string{"-", "[", ":"} {
		if err := p.expect(want); err != nil {
			return err
		}
	}
	edgeLabel, err := p.word()
	if err != nil {
		return err
	}
	for _, want := range []string{"]", "-", ">", "("} {
		if err := p.expect(want); err != nil {
			return err
		}
	}
	if _, err := p.word(); err != nil { // target variable again
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	var targets []string
	for {
		l, err := p.word()
		if err != nil {
			return err
		}
		targets = append(targets, l)
		if !p.lex.peek().is("|") {
			break
		}
		p.lex.next()
	}
	if err := p.expect("}"); err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	s.Keys = append(s.Keys, &Key{
		SourceLabel: srcLabel, EdgeLabel: edgeLabel,
		Min: min, Max: max, TargetLabels: targets,
	})
	return nil
}

func (p *ddlParser) word() (string, error) {
	tok := p.lex.next()
	if tok.kind != tokWord {
		return "", p.errf("expected identifier, got %q", tok.text)
	}
	return tok.text, nil
}

func (p *ddlParser) quoted() (string, error) {
	tok := p.lex.next()
	if tok.kind != tokString {
		return "", p.errf("expected quoted string, got %q", tok.text)
	}
	return tok.text, nil
}

func (p *ddlParser) number() (int, error) {
	tok := p.lex.next()
	if tok.kind != tokNumber {
		return 0, p.errf("expected number, got %q", tok.text)
	}
	n, err := strconv.Atoi(tok.text)
	if err != nil {
		return 0, p.errf("bad number %q", tok.text)
	}
	return n, nil
}

func (p *ddlParser) expect(punct string) error {
	tok := p.lex.next()
	if !tok.is(punct) {
		return p.errf("expected %q, got %q", punct, tok.text)
	}
	return nil
}

func (p *ddlParser) expectWord(w string) error {
	tok := p.lex.next()
	if !tok.isWord(w) {
		return p.errf("expected %q, got %q", w, tok.text)
	}
	return nil
}

func (p *ddlParser) errf(format string, args ...any) error {
	return fmt.Errorf("pgschema: line %d: %s", p.lex.line+1, fmt.Sprintf(format, args...))
}

// Lexer shared by the DDL parser.

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokWord
	tokNumber
	tokString
	tokPunct
)

type token struct {
	kind tokKind
	text string
}

func (t token) is(p string) bool     { return t.kind == tokPunct && t.text == p }
func (t token) isWord(w string) bool { return t.kind == tokWord && strings.EqualFold(t.text, w) }

type lexer struct {
	src    string
	pos    int
	line   int
	peeked *token
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// eatPunctTok consumes the punctuation token when it is next.
func (l *lexer) eatPunctTok(p string) bool {
	if l.peek().is(p) {
		l.next()
		return true
	}
	return false
}

func (l *lexer) peek() token {
	if l.peeked == nil {
		t := l.scan()
		l.peeked = &t
	}
	return *l.peeked
}

func (l *lexer) next() token {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t
	}
	return l.scan()
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF}
scan:
	c := l.src[l.pos]
	switch {
	case c == '"':
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		text := l.src[start:l.pos]
		if l.pos < len(l.src) {
			l.pos++
		}
		return token{kind: tokString, text: text}
	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos]}
	case isWordByte(c):
		start := l.pos
		for l.pos < len(l.src) && (isWordByte(l.src[l.pos]) || l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
			l.pos++
		}
		return token{kind: tokWord, text: l.src[start:l.pos]}
	case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '.':
		l.pos += 2
		return token{kind: tokPunct, text: ".."}
	default:
		l.pos++
		return token{kind: tokPunct, text: string(c)}
	}
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
