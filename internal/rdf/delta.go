package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Delta is one atomic batch of triple-level changes to an RDF graph: the
// typed form of a SPARQL Update `DELETE DATA { … } ; INSERT DATA { … }`
// request. Deletions apply before insertions, matching the SPARQL Update
// semantics for a request that carries both.
//
// A Delta is a plain value: it does not reference a graph, and the same
// Delta can be applied to any graph (applying is idempotent at the RDF
// level — deleting an absent triple and inserting a present one are both
// no-ops).
type Delta struct {
	Deletes []Triple
	Inserts []Triple
}

// Len returns the total number of change statements.
func (d *Delta) Len() int { return len(d.Deletes) + len(d.Inserts) }

// deltaHeader is the version-bearing first line of the serialized form.
const deltaHeader = "S3PG-DELTA 1"

// Encode serializes the delta in a line-oriented, versioned format: a header
// line "S3PG-DELTA 1 <deletes> <inserts>", then one N-Triples statement per
// line prefixed with "D " (delete) or "I " (insert). The encoding is
// canonical — terms are written in N-Triples syntax with escaped lexicals —
// so the byte form round-trips exactly through DecodeDelta and is safe to
// frame inside a WAL record.
func (d *Delta) Encode() []byte {
	size := len(deltaHeader) + 2*21
	for _, ts := range [2][]Triple{d.Deletes, d.Inserts} {
		for i := range ts {
			size += 6 + termSize(&ts[i].S) + termSize(&ts[i].P) + termSize(&ts[i].O)
		}
	}
	dst := append(make([]byte, 0, size), deltaHeader...)
	dst = strconv.AppendInt(append(dst, ' '), int64(len(d.Deletes)), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(len(d.Inserts)), 10)
	dst = append(dst, '\n')
	for _, t := range d.Deletes {
		dst = append(t.AppendTo(append(dst, "D "...)), '\n')
	}
	for _, t := range d.Inserts {
		dst = append(t.AppendTo(append(dst, "I "...)), '\n')
	}
	return dst
}

// DecodeDelta parses the serialized form produced by Encode. The caller
// supplies parseLine to decode one N-Triples statement (the rio package
// provides it; taking it as a parameter keeps rdf free of a parser
// dependency cycle). Lines past the header's counts are ignored.
func DecodeDelta(data []byte, parseLine func(string) (Triple, error)) (*Delta, error) {
	src := string(data)
	header, rest, _ := strings.Cut(src, "\n")
	var nDel, nIns int
	if _, err := fmt.Sscanf(header, deltaHeader+" %d %d", &nDel, &nIns); err != nil {
		return nil, fmt.Errorf("rdf: bad delta header %q: %v", header, err)
	}
	lines := strings.Count(src, "\n")
	if nDel < 0 || nIns < 0 || nDel+nIns > lines {
		return nil, fmt.Errorf("rdf: delta header counts (%d, %d) exceed payload", nDel, nIns)
	}
	d := &Delta{Deletes: withRoom(min(nDel, lines)), Inserts: withRoom(min(nIns, lines))}
	for i := 1; i <= nDel+nIns; i++ {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if len(line) < 2 || (line[0] != 'D' && line[0] != 'I') || line[1] != ' ' {
			return nil, fmt.Errorf("rdf: delta line %d: bad prefix %q", i, line)
		}
		t, err := parseLine(line[2:])
		if err != nil {
			return nil, fmt.Errorf("rdf: delta line %d: %v", i, err)
		}
		if line[0] == 'D' {
			if len(d.Deletes) >= nDel {
				return nil, fmt.Errorf("rdf: delta line %d: more deletes than the header declared", i)
			}
			d.Deletes = append(d.Deletes, t)
		} else {
			if len(d.Inserts) >= nIns {
				return nil, fmt.Errorf("rdf: delta line %d: more inserts than the header declared", i)
			}
			d.Inserts = append(d.Inserts, t)
		}
	}
	if len(d.Deletes) != nDel || len(d.Inserts) != nIns {
		return nil, fmt.Errorf("rdf: delta payload has %d deletes / %d inserts, header declared %d / %d",
			len(d.Deletes), len(d.Inserts), nDel, nIns)
	}
	return d, nil
}

// withRoom returns a slice with room for n triples, nil for none.
func withRoom(n int) []Triple {
	if n == 0 {
		return nil
	}
	return make([]Triple, 0, n)
}
