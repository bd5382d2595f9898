package testgen

// MapsBuilt reports how many assignment maps b has built.
func MapsBuilt(b *Builder) int { return b.built }
