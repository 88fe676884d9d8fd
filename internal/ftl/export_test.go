package ftl

// RestoreTranslator is CheckTranslator, then LoadTranslator: a state that
// fails the check leaves the stack untouched.
func RestoreTranslator(t Translator, s *TranslatorState) error {
	if err := CheckTranslator(t, s); err != nil {
		return err
	}
	LoadTranslator(t, s)
	return nil
}

// ActiveLogs returns the number of replacement blocks currently in use.
func (f *BlockFTL) ActiveLogs() int {
	n := 0
	for i := range f.st.Logs {
		if f.st.Logs[i].LBN >= 0 {
			n++
		}
	}
	return n
}

// DirtyLines returns the number of buffered dirty lines.
func (c *WriteCache) DirtyLines() int64 { return c.st.TotalLines }

// OpenRegions returns the number of regions holding dirty lines.
func (c *WriteCache) OpenRegions() int {
	n := 0
	c.st.eachResident(func(int32) { n++ })
	return n
}

// dirtyCount reports the number of buffered dirty map pages.
func (b *mapBook) dirtyCount() int { return b.Queued }
