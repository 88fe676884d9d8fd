package flash

// PageState is what the chip knows about a page, derived from the block's
// program cursor. (Validity of the data — live vs obsolete — is the FTL's
// concern, not the chip's.)
type PageState uint8

const (
	// PageErased means the page holds all-ones and may be programmed.
	PageErased PageState = iota
	// PageProgrammed means the page holds data.
	PageProgrammed
)

// PageStateAt returns the state of the page.
func (c *Chip) PageStateAt(block, page int) (PageState, error) {
	if err := c.checkAddr(block, page); err != nil {
		return 0, err
	}
	if page < int(c.st.Blocks[block].NextPage) {
		return PageProgrammed, nil
	}
	return PageErased, nil
}

// MarkBad marks a block bad, as a block manager does when it detects
// uncorrectable errors.
func (c *Chip) MarkBad(block int) error {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return ErrOutOfRange
	}
	c.st.Blocks[block].Bad = true
	return nil
}
