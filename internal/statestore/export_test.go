package statestore

// Saved is the store's gob payload. Tests that open a state file, edit the
// state inside and seal it again encode this very type: gob numbers types per
// process in the order it first meets them, so a look-alike struct would shift
// the numbering the state-byte pin (TestStateBytesGolden) depends on.
type Saved = saved
