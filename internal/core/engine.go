package core

import (
	"invalidb/internal/document"
	"invalidb/internal/query"
)

// Engine is the pluggable query engine of the paper's §5.3: it encapsulates
// every database-specific aspect of real-time matching — (1) parsing queries
// of one specific query language, (2) interpreting after-images in the
// prevalent format, (3) computing matching decisions, and (4) sorting
// results with the underlying database's semantics. The cluster itself only
// routes opaque payloads; swapping the Engine adds support for a different
// database.
type Engine interface {
	// Compile parses and validates a query specification.
	Compile(spec query.Spec) (*query.Query, error)
	// DecodeImage interprets a decoded after-image: it checks the engine's
	// structural invariants and returns the image to match against.
	DecodeImage(img *document.AfterImage) (*document.AfterImage, error)
	// Match computes the matching decision for a document.
	Match(q *query.Query, d document.Document) bool
	// Compare orders two documents with the database's sort semantics
	// (including the engine's unambiguous tiebreaker).
	Compare(q *query.Query, a, b document.Document) int
}

// MongoEngine is the MongoDB-compatible engine implementation used by the
// prototype (paper §5.4): sorted filter queries over single collections with
// the operator set of an aggregate-oriented document store.
type MongoEngine struct{}

// Compile implements Engine.
func (MongoEngine) Compile(spec query.Spec) (*query.Query, error) {
	return query.Compile(spec)
}

// DecodeImage implements Engine: it validates structural invariants only.
// Documents are normalised at the doors they enter the system by — storage
// writes and DecodeWire, which yields canonical values by construction — so
// copying them again here would only re-allocate every map and slice of
// every write.
func (MongoEngine) DecodeImage(img *document.AfterImage) (*document.AfterImage, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// Match implements Engine.
func (MongoEngine) Match(q *query.Query, d document.Document) bool { return q.Match(d) }

// Compare implements Engine.
func (MongoEngine) Compare(q *query.Query, a, b document.Document) int { return q.Compare(a, b) }
