//! Mutation-fuzz and property tests for the untrusted-input reader
//! (Matrix Market): on *any* byte stream the reader must return `Ok` or a
//! typed [`SparseError`] — never panic, never abort on an absurd declared
//! size. Cases are driven by a deterministic
//! SplitMix64 sweep (the repo's no-external-framework property idiom),
//! so failures reproduce exactly from the printed seed.

use dagfact_sparse::mm::read_matrix_market;

/// Deterministic parameter source (SplitMix64).
struct Params {
    state: u64,
}

impl Params {
    fn new(case: u64) -> Params {
        Params {
            state: 0xF022_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo).max(1) as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Seed corpus: one valid exemplar per field/symmetry dialect
// ---------------------------------------------------------------------

const MM_CORPUS: &[&str] = &[
    "%%MatrixMarket matrix coordinate real general\n% c\n3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 -1.5\n3 3 2.0\n",
    "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n",
    "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
    "%%MatrixMarket matrix coordinate complex symmetric\n2 2 2\n1 1 1.0 0.5\n2 1 -1.0 0.25\n",
    "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 7\n",
];

/// Tokens a fuzzer loves: overflow bait, signs, NaN, empty.
const EVIL_TOKENS: &[&str] = &[
    "18446744073709551615",
    "99999999999999999999999999",
    "-1",
    "0",
    "1e308",
    "NaN",
    "inf",
    "",
    "(",
    "%%MatrixMarket",
    "1.0.0",
    "0x10",
];

/// Apply one random mutation to the text.
fn mutate(p: &mut Params, text: &mut Vec<u8>) {
    if text.is_empty() {
        text.extend_from_slice(b"1 1 1\n");
        return;
    }
    match p.next_u64() % 6 {
        // Flip a random byte to a random printable (or newline).
        0 => {
            let pos = p.range(0, text.len());
            text[pos] = match p.next_u64() % 4 {
                0 => b'\n',
                1 => b' ',
                2 => b'0' + (p.next_u64() % 10) as u8,
                _ => 0x21 + (p.next_u64() % 94) as u8,
            };
        }
        // Truncate at a random point.
        1 => {
            let pos = p.range(0, text.len());
            text.truncate(pos);
        }
        // Delete a random line.
        2 => {
            let lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
            if lines.len() > 1 {
                let skip = p.range(0, lines.len());
                let mut out = Vec::with_capacity(text.len());
                for (i, l) in lines.iter().enumerate() {
                    if i != skip {
                        out.extend_from_slice(l);
                        out.push(b'\n');
                    }
                }
                *text = out;
            }
        }
        // Duplicate a random line.
        3 => {
            let lines: Vec<Vec<u8>> =
                text.split(|&b| b == b'\n').map(|l| l.to_vec()).collect();
            if !lines.is_empty() {
                let dup = p.range(0, lines.len());
                let mut out = Vec::with_capacity(text.len() * 2);
                for (i, l) in lines.iter().enumerate() {
                    out.extend_from_slice(l);
                    out.push(b'\n');
                    if i == dup {
                        out.extend_from_slice(l);
                        out.push(b'\n');
                    }
                }
                *text = out;
            }
        }
        // Replace a whitespace-delimited token with an evil one.
        4 => {
            let s = String::from_utf8_lossy(text).into_owned();
            let tokens: Vec<&str> = s.split(' ').collect();
            if !tokens.is_empty() {
                let idx = p.range(0, tokens.len());
                let evil = EVIL_TOKENS[p.range(0, EVIL_TOKENS.len())];
                let mut out: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
                out[idx] = evil.to_string();
                *text = out.join(" ").into_bytes();
            }
        }
        // Insert random bytes (possibly invalid UTF-8).
        _ => {
            let pos = p.range(0, text.len());
            let n = p.range(1, 8);
            let junk: Vec<u8> = (0..n).map(|_| (p.next_u64() & 0xFF) as u8).collect();
            text.splice(pos..pos, junk);
        }
    }
}

fn assert_no_panic(kind: &str, case: u64, input: &[u8], f: impl FnOnce() + std::panic::UnwindSafe) {
    if std::panic::catch_unwind(f).is_err() {
        panic!(
            "{kind} reader panicked on fuzz case {case}; input:\n{}",
            String::from_utf8_lossy(input)
        );
    }
}

#[test]
fn matrix_market_reader_never_panics_on_mutated_input() {
    for case in 0..4000u64 {
        let mut p = Params::new(case);
        let mut text = MM_CORPUS[p.range(0, MM_CORPUS.len())].as_bytes().to_vec();
        for _ in 0..p.range(1, 5) {
            mutate(&mut p, &mut text);
        }
        let input = text.clone();
        assert_no_panic("matrix market", case, &input, move || {
            let _ = read_matrix_market::<f64, _>(&text[..]);
        });
    }
}

#[test]
fn successful_parses_of_mutated_input_are_structurally_sound() {
    // When a mutated file still parses, the result must be a coherent
    // matrix: canonical column order, in-bounds indices, finite-or-not
    // values but never an inconsistent structure.
    let mut parsed = 0usize;
    for case in 0..4000u64 {
        let mut p = Params::new(case ^ 0x5052_4F50);
        let mut text = MM_CORPUS[p.range(0, MM_CORPUS.len())].as_bytes().to_vec();
        mutate(&mut p, &mut text);
        if let Ok(a) = read_matrix_market::<f64, _>(&text[..]) {
            parsed += 1;
            for j in 0..a.ncols() {
                let rows = a.col_rows(j);
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "case {case}: column {j} not strictly sorted");
                assert!(rows.iter().all(|&i| i < a.nrows()), "case {case}: row index out of bounds");
            }
        }
    }
    // The corpus is valid and single mutations often hit comments or
    // values, so a healthy fraction must still parse.
    assert!(parsed > 100, "only {parsed} cases parsed — corpus or mutator broken");
}

// ---------------------------------------------------------------------
// Targeted adversarial headers (the overflow/absurd-size corner cases)
// ---------------------------------------------------------------------

#[test]
fn absurd_declared_sizes_are_typed_errors() {
    let huge_nnz_sym = format!(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 {}\n1 1 1.0\n",
        usize::MAX
    );
    let huge_cols = format!(
        "%%MatrixMarket matrix coordinate real general\n1 {} 1\n1 1 1.0\n",
        usize::MAX
    );
    let huge_reserve = "%%MatrixMarket matrix coordinate real general\n\
                        1000000 1000000 123456789012345678\n1 1 1.0\n";
    for text in [huge_nnz_sym.as_str(), huge_cols.as_str(), huge_reserve] {
        match read_matrix_market::<f64, _>(text.as_bytes()) {
            Err(_) => {}
            Ok(_) => panic!("absurd header must not parse: {text:?}"),
        }
    }
}

#[test]
fn declared_entry_count_is_enforced_both_ways() {
    let extra = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n";
    assert!(read_matrix_market::<f64, _>(extra.as_bytes()).is_err());
    let missing = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
    assert!(read_matrix_market::<f64, _>(missing.as_bytes()).is_err());
}
