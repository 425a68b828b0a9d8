from cli_digests import DIGEST_FILE, LARGE_ODD_LIST, digest_lines

# The levels tier-1 recomputes; CI checks the rest of the file, to n = 24 and
# the large odd-list lines.
TIER1_N_MAX = 12


def test_cli_digests_match_the_committed_file():
    committed = DIGEST_FILE.read_text().splitlines()
    assert committed[-1].startswith(f"odd-list json {LARGE_ODD_LIST[-1]} ")
    computed = list(digest_lines(TIER1_N_MAX))
    assert computed == committed[: len(computed)]
