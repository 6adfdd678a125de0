package benchsuite

import (
	"strings"
	"testing"
)

// TestPointNames: every point is "Family/sub" and no name repeats, so each
// snapshot name has exactly one definition.
func TestPointNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range All() {
		if fam, sub, ok := strings.Cut(p.Name, "/"); !ok || fam == "" || sub == "" {
			t.Errorf("point %q is not Family/sub", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("point %q defined twice", p.Name)
		}
		seen[p.Name] = true
	}
}
