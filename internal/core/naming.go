// Package core implements the S3PG transformation (§4 of the paper):
// the schema transformation F_st from SHACL shape schemas to PG-Schema,
// the two-phase streaming data transformation F_dt from RDF graphs to
// property graphs (Algorithm 1), monotone incremental updates (§4.2.1),
// and the inverse mappings M : PG → G and N : S_PG → S_G that establish
// information preservation (Prop. 4.1).
package core

import (
	"fmt"
	"strings"

	"github.com/s3pg/s3pg/internal/rdf"
)

// sanitizeName rewrites a string into a safe PG label / property key:
// letters, digits and underscores, starting with a letter.
func sanitizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == '_' || r == '-' || r == '.':
			b.WriteByte('_')
		default:
			// Drop other runes; IRIs local names are usually ASCII.
		}
	}
	out := b.String()
	if out == "" {
		return "x"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "n" + out
	}
	return out
}

// namer assigns unique sanitized names to IRIs, disambiguating collisions
// (two IRIs with the same local name) deterministically by suffixing an
// ordinal in first-come order.
type namer struct {
	byIRI  map[string]string
	byName map[string]string // name → IRI that owns it
}

func newNamer() *namer {
	return &namer{byIRI: make(map[string]string), byName: make(map[string]string)}
}

// Name returns the stable unique name for the IRI, claiming it.
func (n *namer) Name(iri string) string {
	name := n.free(iri)
	n.Claim(iri, name)
	return name
}

// free returns the name Name would give the IRI, claiming nothing.
func (n *namer) free(iri string) string {
	if name, ok := n.byIRI[iri]; ok {
		return name
	}
	base := sanitizeName(rdf.LocalName(iri))
	name := base
	for i := 2; !n.freeFor(name, iri); i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	return name
}

// freeFor reports whether name is unclaimed or already the IRI's.
func (n *namer) freeFor(name, iri string) bool {
	owner, taken := n.byName[name]
	return !taken || owner == iri
}

// Claim registers an existing name → IRI binding (used when rebuilding a
// namer from a serialized schema).
func (n *namer) Claim(iri, name string) {
	n.byIRI[iri] = name
	n.byName[name] = iri
}

// typeName derives a node/edge type name from a label, Figure 5 style:
// "Person" → "personType", "STRING" → "stringType".
func typeName(label string) string {
	if label == "" {
		return "anonType"
	}
	if label == strings.ToUpper(label) {
		return strings.ToLower(label) + "Type"
	}
	return strings.ToLower(label[:1]) + label[1:] + "Type"
}
