package ftl

import "fmt"

// TranslatorState is the state of a translation stack as a tree of pointers to
// the structs its layers run on. One of Page, Block and Cache is set, naming
// the top layer: an FTL with its free pool, its map book and the flash beside
// it, a cache with the stack it buffers. Restored into a freshly built stack of
// the same configuration it gives results byte-identical to the original's.
type TranslatorState struct {
	Page  *PageFTLState
	Block *BlockFTLState
	Free  *QueueState
	Book  *MapBookState
	Arr   *ArrayState

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

// clone returns a deep copy of the tree that shares no memory with it.
func (s *TranslatorState) clone() *TranslatorState {
	if s == nil {
		return nil
	}
	return &TranslatorState{
		Page: copied(s.Page), Block: copied(s.Block), Free: copied(s.Free), Book: copied(s.Book), Arr: copied(s.Arr),
		Cache: copied(s.Cache), Inner: s.Inner.clone(),
	}
}

// view returns the tree over the live structs the stack runs on — no copies.
// Like CheckTranslator and LoadTranslator it type-switches on the layers of
// this package: any other translator keeps its state out of their sight.
func view(t Translator) (*TranslatorState, error) {
	switch t := t.(type) {
	case *PageFTL:
		return &TranslatorState{Page: &t.st, Free: &t.free.QueueState, Book: &t.book.MapBookState, Arr: t.arr.view()}, nil
	case *BlockFTL:
		return &TranslatorState{Block: &t.st, Free: &t.free.QueueState, Book: &t.book.MapBookState, Arr: t.arr.view()}, nil
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
		return s.Page.audit(&t.cfg, s.Free, s.Arr)
	case *BlockFTL:
		if s == nil || s.Block == nil {
			return fmt.Errorf("ftl: state is not a block FTL's")
		}
		if err := t.checkBooks(s); err != nil {
			return err
		}
		return s.Block.audit(&t.cfg, s.Free, s.Arr)
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
		t.arr.load(s.Arr)
		t.loadBooks(s.Free, s.Book)
		t.st.copyFrom(s.Page)
		t.rederive()
	case *BlockFTL:
		t.arr.load(s.Arr)
		t.loadBooks(s.Free, s.Book)
		t.st.copyFrom(s.Block)
	case *WriteCache:
		LoadTranslator(t.inner, s.Inner)
		t.unindex()
		t.st.copyFrom(s.Cache)
		t.rederive()
	}
}

// RestoreTranslator is CheckTranslator, then LoadTranslator: a state that
// fails the check leaves the stack untouched.
func RestoreTranslator(t Translator, s *TranslatorState) error {
	if err := CheckTranslator(t, s); err != nil {
		return err
	}
	LoadTranslator(t, s)
	return nil
}

// Audit checks every layer's invariant on the stack's live state.
func Audit(t Translator) error {
	v, err := view(t)
	if err != nil {
		return err
	}
	return CheckTranslator(t, v)
}
