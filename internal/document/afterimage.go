package document

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Op is the kind of write operation an after-image describes.
type Op uint8

const (
	// OpInsert created the record.
	OpInsert Op = iota + 1
	// OpUpdate replaced or modified an existing record.
	OpUpdate
	// OpDelete removed the record; the after-image document is nil.
	OpDelete
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// AfterImage is the fully specified representation of a written entity that
// the application server forwards to the InvaliDB cluster on every write
// (paper §5). Versions are assigned per record and increase strictly with
// each write, enabling staleness avoidance: a matching node drops any
// after-image whose version is not newer than the last one it has seen for
// the same key.
type AfterImage struct {
	Collection string `json:"c"`
	Key        string `json:"k"`
	Version    uint64 `json:"v"`
	Op         Op     `json:"o"`
	// Doc is the written document, nil for deletes. It is READ-ONLY: the
	// after-images the storage engine returns and logs share the stored
	// record's document (records are immutable once stored, so no copy is
	// taken), and one after-image reaches every oplog tailer. A consumer
	// that needs to change it clones first.
	Doc Document `json:"d,omitempty"`
}

// Validate checks structural invariants: a key and version are always
// required, deletes carry no document, other operations carry one.
func (ai *AfterImage) Validate() error {
	switch {
	case ai.Key == "":
		return fmt.Errorf("after-image: empty key")
	case ai.Version == 0:
		return fmt.Errorf("after-image: zero version for key %q", ai.Key)
	case ai.Op == OpDelete && ai.Doc != nil:
		return fmt.Errorf("after-image: delete of %q carries a document", ai.Key)
	case ai.Op != OpDelete && ai.Doc == nil:
		return fmt.Errorf("after-image: %s of %q carries no document", ai.Op, ai.Key)
	case ai.Op != OpInsert && ai.Op != OpUpdate && ai.Op != OpDelete:
		return fmt.Errorf("after-image: invalid op %d", ai.Op)
	}
	return nil
}

// Encode serializes the after-image for transport over the event layer.
func (ai *AfterImage) Encode() ([]byte, error) {
	return json.Marshal(ai)
}

// DecodeAfterImage parses an encoded after-image and normalizes its document
// into canonical value types.
func DecodeAfterImage(data []byte) (*AfterImage, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var ai AfterImage
	if err := dec.Decode(&ai); err != nil {
		return nil, fmt.Errorf("after-image: decode: %w", err)
	}
	if ai.Doc != nil {
		ai.Doc = Normalize(ai.Doc)
	}
	if err := ai.Validate(); err != nil {
		return nil, err
	}
	return &ai, nil
}
