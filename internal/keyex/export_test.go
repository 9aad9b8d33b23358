package keyex

// VolatileScalars returns how many fresh-mode scalars are published and
// not yet consumed.
func VolatileScalars() int {
	sxs.mu.Lock()
	defer sxs.mu.Unlock()
	return len(sxs.vol)
}
