package chord

import (
	"testing"

	"cqjoin/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
