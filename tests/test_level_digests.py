from level_digests import DIGEST_FILE, N_MAX, digest_lines

# The levels tier-1 recomputes; CI checks the rest of the file, to n = 63.
TIER1_N_MAX = 28


def test_level_digests_match_the_committed_file():
    committed = DIGEST_FILE.read_text().splitlines()
    t = N_MAX.bit_length() - 1
    assert committed[-1].startswith(f"commute {N_MAX} {t - 1} {t} ")
    computed = list(digest_lines(TIER1_N_MAX))
    assert computed == committed[: len(computed)]
