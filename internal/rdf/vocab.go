package rdf

import "strings"

// Well-known vocabulary IRIs used across the system.
const (
	RDFNS  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNS = "http://www.w3.org/2000/01/rdf-schema#"
	XSDNS  = "http://www.w3.org/2001/XMLSchema#"
	SHNS   = "http://www.w3.org/ns/shacl#"

	RDFType       = RDFNS + "type"
	RDFLangString = RDFNS + "langString"
	RDFFirst      = RDFNS + "first"
	RDFRest       = RDFNS + "rest"
	RDFNil        = RDFNS + "nil"

	RDFSClass      = RDFSNS + "Class"
	RDFSSubClassOf = RDFSNS + "subClassOf"
	RDFSLiteral    = RDFSNS + "Literal"
	RDFSLabel      = RDFSNS + "label"

	XSDString   = XSDNS + "string"
	XSDBoolean  = XSDNS + "boolean"
	XSDInteger  = XSDNS + "integer"
	XSDInt      = XSDNS + "int"
	XSDLong     = XSDNS + "long"
	XSDDecimal  = XSDNS + "decimal"
	XSDDouble   = XSDNS + "double"
	XSDFloat    = XSDNS + "float"
	XSDDate     = XSDNS + "date"
	XSDDateTime = XSDNS + "dateTime"
	XSDGYear    = XSDNS + "gYear"
	XSDAnyURI   = XSDNS + "anyURI"
)

// SHACL vocabulary IRIs (the core constraint components of Definition 2.2).
const (
	SHNodeShape     = SHNS + "NodeShape"
	SHPropertyShape = SHNS + "PropertyShape"
	SHTargetClass   = SHNS + "targetClass"
	SHProperty      = SHNS + "property"
	SHPath          = SHNS + "path"
	SHDatatype      = SHNS + "datatype"
	SHClass         = SHNS + "class"
	SHNode          = SHNS + "node"
	SHNodeKindProp  = SHNS + "nodeKind"
	SHOr            = SHNS + "or"
	SHMinCount      = SHNS + "minCount"
	SHMaxCount      = SHNS + "maxCount"
	SHIRIKind       = SHNS + "IRI"
	SHLiteralKind   = SHNS + "Literal"
	SHBlankNodeKind = SHNS + "BlankNode"
)

// A is the type predicate term (rdf:type), named after the Turtle shorthand.
var A = NewIRI(RDFType)

// LocalName extracts the local part of an IRI: the substring after the last
// '#' or '/' (or the whole IRI when neither occurs, or when it ends there).
func LocalName(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}
