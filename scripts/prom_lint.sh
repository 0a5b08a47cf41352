#!/bin/sh
# prom_lint.sh — validate a Prometheus 0.0.4 text exposition on stdin.
#
# Checks (no external deps beyond POSIX awk):
#   * every sample belongs to a metric family announced by `# TYPE`;
#   * every `# TYPE` is preceded by a `# HELP` for the same family;
#   * the type is one of counter|gauge|histogram|summary|untyped;
#   * sample lines parse as  name{labels} value  with a numeric value;
#   * every histogram family exposes `_bucket` samples including an
#     `le="+Inf"` bucket, plus `_sum` and `_count`;
#   * each family is announced at most once (a scraper rejects a
#     second `# TYPE` for the same name);
#   * at least one metric family is present (an empty exposition is a
#     wiring bug, not a clean bill of health).
#
# Which type each family has, and how it is named, is checked at compile
# time by the `csj_obs::catalog` family constructor.
#
# Usage:  csj stats --format prom ... | scripts/prom_lint.sh
# Exits non-zero with one diagnostic per violation.
set -eu

awk '
function fail(msg) { print "prom_lint: line " NR ": " msg > "/dev/stderr"; bad = 1 }
function base(n) { sub(/_(bucket|sum|count)$/, "", n); return n }

/^$/ { next }

/^# HELP / {
    split($0, a, " ")
    help[a[3]] = 1
    next
}

/^# TYPE / {
    split($0, a, " ")
    name = a[3]; kind = a[4]
    if (!(kind ~ /^(counter|gauge|histogram|summary|untyped)$/))
        fail("unknown type \"" kind "\" for " name)
    if (!(name in help))
        fail("# TYPE " name " without a preceding # HELP")
    if (name in type)
        fail("# TYPE " name " repeated (a family is announced once)")
    type[name] = kind
    families++
    next
}

/^#/ { next }  # other comments are legal

{
    # Sample line:  name{labels} value   or   name value
    if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/)) {
        fail("unparseable sample: " $0)
        next
    }
    name = substr($0, 1, RLENGTH)
    rest = substr($0, RLENGTH + 1)
    if (rest ~ /^\{/) {
        if (!match(rest, /^\{[^}]*\}/)) { fail("unclosed label set: " $0); next }
        labels = substr(rest, 2, RLENGTH - 2)
        rest = substr(rest, RLENGTH + 1)
    } else {
        labels = ""
    }
    sub(/^[ \t]+/, "", rest)
    if (!(rest ~ /^[-+]?([0-9]*\.)?[0-9]+([eE][-+]?[0-9]+)?([ \t]+[0-9]+)?$/) \
        && !(rest ~ /^[-+]?(Inf|NaN)$/))
        fail("non-numeric value \"" rest "\" for " name)

    fam = name
    if (!(fam in type)) fam = base(name)
    if (!(fam in type)) { fail("sample " name " has no # TYPE"); next }

    if (type[fam] == "histogram") {
        if (name == fam "_bucket") {
            seen_bucket[fam] = 1
            if (labels ~ /le="\+Inf"/) seen_inf[fam] = 1
        }
        if (name == fam "_sum") seen_sum[fam] = 1
        if (name == fam "_count") seen_count[fam] = 1
    }
}

END {
    if (families == 0) { print "prom_lint: empty exposition (no # TYPE lines)" > "/dev/stderr"; bad = 1 }
    for (fam in type) {
        if (type[fam] != "histogram") continue
        if (!(fam in seen_bucket)) { print "prom_lint: histogram " fam " has no _bucket samples" > "/dev/stderr"; bad = 1 }
        else if (!(fam in seen_inf)) { print "prom_lint: histogram " fam " is missing the le=\"+Inf\" bucket" > "/dev/stderr"; bad = 1 }
        if (!(fam in seen_sum)) { print "prom_lint: histogram " fam " has no _sum sample" > "/dev/stderr"; bad = 1 }
        if (!(fam in seen_count)) { print "prom_lint: histogram " fam " has no _count sample" > "/dev/stderr"; bad = 1 }
    }
    if (bad) exit 1
    print "prom_lint: OK (" families " metric families)"
}
'
