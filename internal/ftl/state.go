package ftl

import (
	"fmt"

	"uflip/internal/flash"
)

// TranslatorState is the state of a translation stack as a tree of pointers to
// the structs its layers run on. One of Page, Block and Cache is set, naming
// the top layer: an FTL with its map book and the flash beside it (one chip's
// state spanning every block), a cache with the stack it buffers. What a
// layer derives from its state, such as an FTL's free pool, is not in it.
// Restored into a freshly built stack of the same configuration it gives
// results byte-identical to the original's.
type TranslatorState struct {
	Page  *PageFTLState
	Block *BlockFTLState
	Book  *MapBookState
	Arr   *flash.ChipState

	Cache *WriteCacheState
	Inner *TranslatorState
}

// copied returns a deep copy of a layer's state struct; nil for nil.
func copied[T any, P interface {
	*T
	copyFrom(*T)
}](src *T) *T {
	if src == nil {
		return nil
	}
	dst := new(T)
	P(dst).copyFrom(src)
	return dst
}

// copiedFlash is copied for the flash's state, whose copy routine is the
// flash package's.
func copiedFlash(src *flash.ChipState) *flash.ChipState {
	if src == nil {
		return nil
	}
	dst := &flash.ChipState{}
	dst.CopyFrom(src)
	return dst
}

// clone returns a deep copy of the tree that shares no memory with it.
func (s *TranslatorState) clone() *TranslatorState {
	if s == nil {
		return nil
	}
	return &TranslatorState{
		Page: copied(s.Page), Block: copied(s.Block), Book: copied(s.Book), Arr: copiedFlash(s.Arr),
		Cache: copied(s.Cache), Inner: s.Inner.clone(),
	}
}

// view returns the tree over the live structs the stack runs on — no copies.
// Like CheckTranslator and LoadTranslator it type-switches on the layers of
// this package: any other translator keeps its state out of their sight.
func view(t Translator) (*TranslatorState, error) {
	switch t := t.(type) {
	case *PageFTL:
		return &TranslatorState{Page: &t.st, Book: &t.book.MapBookState, Arr: t.arr.chip.State()}, nil
	case *BlockFTL:
		return &TranslatorState{Block: &t.st, Book: &t.book.MapBookState, Arr: t.arr.chip.State()}, nil
	case *WriteCache:
		inner, err := view(t.inner)
		return &TranslatorState{Cache: &t.st, Inner: inner}, err
	}
	return nil, fmt.Errorf("ftl: translator %T cannot be snapshotted or restored", t)
}

// SnapshotTranslator captures the complete state of a translation stack. The
// snapshot shares no memory with the stack.
func SnapshotTranslator(t Translator) (*TranslatorState, error) {
	v, err := view(t)
	return v.clone(), err
}

// CheckTranslator runs every layer's validator, bottom up, over s: nil exactly
// when s is a state a stack built like t could be in. It changes neither.
func CheckTranslator(t Translator, s *TranslatorState) error {
	switch t := t.(type) {
	case *PageFTL:
		if s == nil || s.Page == nil {
			return fmt.Errorf("ftl: state is not a page FTL's")
		}
		if err := t.checkBooks(s); err != nil {
			return err
		}
		return s.Page.audit(&t.cfg, s.Arr)
	case *BlockFTL:
		if s == nil || s.Block == nil {
			return fmt.Errorf("ftl: state is not a block FTL's")
		}
		if err := t.checkBooks(s); err != nil {
			return err
		}
		return s.Block.audit(&t.cfg, s.Arr)
	case *WriteCache:
		if s == nil || s.Cache == nil {
			return fmt.Errorf("ftl: state is not a write cache's")
		}
		if err := CheckTranslator(t.inner, s.Inner); err != nil {
			return err
		}
		return s.Cache.audit(&t.cfg)
	}
	return fmt.Errorf("ftl: translator %T cannot be snapshotted or restored", t)
}

// LoadTranslator overwrites the stack's state with a copy of s, which must
// have passed CheckTranslator(t, s), and rederives the rest.
func LoadTranslator(t Translator, s *TranslatorState) {
	switch t := t.(type) {
	case *PageFTL:
		t.arr.chip.State().CopyFrom(s.Arr)
		t.loadBook(s.Book)
		t.st.copyFrom(s.Page)
		t.rederive()
	case *BlockFTL:
		t.arr.chip.State().CopyFrom(s.Arr)
		t.loadBook(s.Book)
		t.st.copyFrom(s.Block)
		t.rederive()
	case *WriteCache:
		LoadTranslator(t.inner, s.Inner)
		t.unindex()
		t.st.copyFrom(s.Cache)
		t.rederive()
	}
}

// Audit checks every layer's invariant on the stack's live state, then that
// what the layers derive from their states — the FTLs' free pools, the
// PageFTL's reclamation candidates, the map books' dirty sets, the cache's
// region index — is what rederiving it gives. CheckTranslator stays
// state-only: a restore runs it on a state nothing has been derived from yet.
func Audit(t Translator) error {
	v, err := view(t)
	if err != nil {
		return err
	}
	if err := CheckTranslator(t, v); err != nil {
		return err
	}
	return checkDerived(t)
}

func checkDerived(t Translator) error {
	switch t := t.(type) {
	case *PageFTL:
		return t.checkDerived()
	case *BlockFTL:
		return t.checkDerived()
	case *WriteCache:
		if err := checkDerived(t.inner); err != nil {
			return err
		}
		return t.checkDerived()
	}
	return nil
}
