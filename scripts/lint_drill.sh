#!/usr/bin/env bash
# lint_drill.sh — prove each interprocedural rpmlint analyzer still
# catches its invariant. For every analyzer a deliberately violating
# (but compiling) package is written to a scratch directory and rpmlint
# must exit 1 naming that analyzer; a drill that passes lint means the
# analyzer has gone blind and the gate is lying.
set -euo pipefail
cd "$(dirname "$0")/.."

DRILL_DIR=lintdrill
trap 'rm -rf "$DRILL_DIR"' EXIT
mkdir -p "$DRILL_DIR"

fail() { echo "lint-drill: $*" >&2; exit 1; }

# run_case <analyzer>: reads the violating file from stdin, runs
# rpmlint over the scratch package, and requires exit 1 plus the
# analyzer's name in the output.
run_case() {
  local analyzer=$1
  cat > "$DRILL_DIR/drill.go"
  local out status=0
  out=$(go run ./cmd/rpmlint "./$DRILL_DIR" 2>&1) || status=$?
  if [ "$status" -eq 0 ]; then
    fail "$analyzer: seeded violation passed lint (analyzer gone blind)"
  fi
  if [ "$status" -ne 1 ]; then
    fail "$analyzer: rpmlint exited $status, want 1: $out"
  fi
  if ! grep -q "\[$analyzer\]" <<<"$out"; then
    fail "$analyzer: exit 1 but no [$analyzer] finding in output: $out"
  fi
  echo "lint-drill: $analyzer caught its seeded violation"
}

run_case hotpathalloc <<'EOF'
package lintdrill

//rpmlint:hotpath drill: must be allocation-free
func Hot(n int) []int { return make([]int, n) }
EOF

run_case ctxflow <<'EOF'
package lintdrill

import "context"

func work(ctx context.Context) error { return ctx.Err() }

func hold(ctx context.Context) error { return work(context.Background()) }
EOF

run_case obsnames <<'EOF'
package lintdrill

import "rpm/internal/obs"

func record(reg *obs.Registry) { reg.Counter("drill.raw.name").Inc() }
EOF

run_case staleignore <<'EOF'
package lintdrill

//rpmlint:ignore floateq drill: suppresses nothing
func stale() int { return 3 }
EOF

echo "lint-drill: all 4 analyzers proved live"
