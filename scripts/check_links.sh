#!/usr/bin/env bash
# check_links.sh — fail on broken relative links in the repo's Markdown
# docs (README.md and docs/*.md). External http(s) links are skipped. A
# fragment on a Markdown target (`file.md#frag`, or `#frag` in-page) must
# name one of that file's headings by its GitHub anchor.
#
# Usage: scripts/check_links.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C.UTF-8

# slugs FILE prints the GitHub anchor of every heading in FILE outside
# code fences: lower-case, drop everything except letters, digits,
# spaces, '-' and '_', then turn spaces into '-'.
slugs() {
  awk '/^```/ { fence = !fence; next } !fence && /^#+ / { sub(/^#+ +/, ""); print }' "$1" |
    sed -E 's/.*/\L&/; s/[^[:alnum:] _-]//g; s/ /-/g'
}

fail=0
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  base=$(dirname "$doc")
  # Extract every markdown link target: [text](target)
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    frag=""
    [[ "$target" == *'#'* ]] && frag="${target#*#}"
    file="$doc"
    if [ -n "$path" ]; then
      file="$base/$path"
      if [ ! -e "$file" ]; then
        echo "::error::$doc: broken relative link -> $target" >&2
        fail=1
        continue
      fi
    fi
    if [ -n "$frag" ] && [[ "$file" == *.md ]] && ! slugs "$file" | grep -qxF -- "$frag"; then
      echo "::error::$doc: no heading for anchor -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

if [ "$fail" -ne 0 ]; then
  echo "broken links found" >&2
  exit 1
fi
echo "all relative doc links and anchors resolve"
