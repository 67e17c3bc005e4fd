//! Oracle tests for the token path: the visitor tokenizers against
//! test-local copies of the `char`-by-`char` implementations they
//! replaced, and `TokenInterner::intern_tokens` against interning each
//! token of `tokenize(..)` — results *and* the ids handed out later.

use magellan_textsim::tokenize::{
    AlphanumericTokenizer, DelimiterTokenizer, QgramTokenizer, Tokenizer, WhitespaceTokenizer,
};
use magellan_textsim::TokenInterner;
use proptest::prelude::*;

/// The four tokenizers as they were written before the visitor: one
/// `String` per token, `char` at a time, no ASCII shortcut.
mod reference {
    pub fn whitespace(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    pub fn delimiter(delimiters: &[char], s: &str) -> Vec<String> {
        s.split(|c: char| delimiters.contains(&c))
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect()
    }

    pub fn alphanumeric(s: &str) -> Vec<String> {
        let mut toks = Vec::new();
        let mut cur = String::new();
        for ch in s.chars() {
            if ch.is_ascii_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                toks.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            toks.push(cur);
        }
        toks
    }

    pub fn qgram(q: usize, padded: bool, s: &str) -> Vec<String> {
        let mut chars: Vec<char> = Vec::new();
        if padded {
            chars.extend(std::iter::repeat_n('#', q - 1));
        }
        chars.extend(s.chars());
        if padded {
            chars.extend(std::iter::repeat_n('$', q - 1));
        }
        if chars.len() < q {
            return Vec::new();
        }
        chars.windows(q).map(|w| w.iter().collect()).collect()
    }

    /// First occurrences, in order.
    pub fn dedupe(tokens: &[String]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in tokens {
            if !out.contains(t) {
                out.push(t.clone());
            }
        }
        out
    }
}

const DELIMITERS: [char; 3] = [',', ';', '\u{e9}'];

/// Every tokenizer configuration under test, with its reference bag.
#[allow(clippy::type_complexity)]
fn tokenizers() -> Vec<(String, Box<dyn Tokenizer>, Box<dyn Fn(&str) -> Vec<String>>)> {
    let mut all: Vec<(String, Box<dyn Tokenizer>, Box<dyn Fn(&str) -> Vec<String>>)> = Vec::new();
    for set in [false, true] {
        all.push((
            format!("ws set={set}"),
            Box::new(WhitespaceTokenizer { return_set: set }),
            Box::new(reference::whitespace),
        ));
        let mut delim = DelimiterTokenizer::new(&DELIMITERS);
        delim.return_set = set;
        all.push((
            format!("delim set={set}"),
            Box::new(delim),
            Box::new(|s| reference::delimiter(&DELIMITERS, s)),
        ));
        all.push((
            format!("alnum set={set}"),
            Box::new(AlphanumericTokenizer { return_set: set }),
            Box::new(reference::alphanumeric),
        ));
        for q in [1, 2, 3, 5] {
            for padded in [false, true] {
                all.push((
                    format!("{q}gram padded={padded} set={set}"),
                    Box::new(QgramTokenizer {
                        q,
                        padded,
                        return_set: set,
                    }),
                    Box::new(move |s| reference::qgram(q, padded, s)),
                ));
            }
        }
    }
    all
}

fn visited(tok: &dyn Tokenizer, s: &str) -> Vec<String> {
    let mut out = Vec::new();
    tok.for_each_token(s, &mut |t| out.push(t.to_owned()));
    out
}

/// The visitor contract, for one string under every tokenizer.
fn assert_matches_reference(s: &str) {
    for (name, tok, reference_bag) in tokenizers() {
        let bag = reference_bag(s);
        let seen = visited(tok.as_ref(), s);
        if tok.return_set() {
            // Duplicates may be visited, first occurrences keep their order.
            let set = reference::dedupe(&bag);
            assert_eq!(reference::dedupe(&seen), set, "{name} visit of {s:?}");
            assert_eq!(tok.tokenize(s), set, "{name} tokenize of {s:?}");
            assert!(
                seen.iter().all(|t| set.contains(t)),
                "{name} invented a token of {s:?}"
            );
        } else {
            assert_eq!(seen, bag, "{name} visit of {s:?}");
            assert_eq!(tok.tokenize(s), bag, "{name} tokenize of {s:?}");
        }
    }
}

/// What random strings are drawn from: both ASCII cases, digits, the pad
/// sentinels, every kind of whitespace, and the characters whose
/// lowercasing or encoding a byte-level path could get wrong.
const ALPHABET: &[&str] = &[
    "a",
    "b",
    "Z",
    "Q",
    "7",
    "0",
    " ",
    " ",
    "\t",
    "\r",
    "\n",
    ",",
    ";",
    "-",
    "#",
    "$",
    "'",
    "\u{212a}",  // KELVIN SIGN, lowercases to ASCII `k`
    "\u{130}",   // İ, lowercases to `i` + U+0307
    "\u{df}",    // ß
    "\u{e9}",    // é (also a delimiter above)
    "\u{301}",   // combining acute
    "\u{307}",   // combining dot above
    "\u{a0}",    // no-break space: whitespace, not ASCII
    "\u{2603}",  // ☃, three bytes
    "\u{1f600}", // four bytes
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

#[test]
fn visitors_match_reference_on_pinned_strings() {
    let long_upper = "Ab9".repeat(40); // one 120-byte token with upper-case bytes
    let cases = [
        String::new(),
        " ".to_owned(),
        "a".to_owned(),
        "O'Brien-Smith, J.R. (2nd)".to_owned(),
        "\u{212a}elvin 5\u{212a}".to_owned(),
        "\u{130}stanbul \u{130}".to_owned(),
        "STRASSE stra\u{df}e".to_owned(),
        "e\u{301} i\u{307} \u{301}".to_owned(),
        "tab\tCR\rLF\nend".to_owned(),
        "x\u{a0}y".to_owned(),
        // Around the stack buffers: 63/64/65-byte tokens, with and without
        // an upper-case byte, and strings either side of 128 padded bytes.
        "a".repeat(63),
        "a".repeat(64),
        "a".repeat(65),
        "A".repeat(63),
        "A".repeat(64),
        "A".repeat(65),
        format!("{} {}", "B".repeat(70), "c".repeat(70)),
        long_upper,
        "q".repeat(120),
        "q".repeat(124),
        "q".repeat(128),
        "q".repeat(300),
        format!("{}\u{e9}", "z".repeat(130)),
    ];
    for s in &cases {
        assert_matches_reference(s);
    }
}

/// A token bag's sorted, deduplicated id set.
fn id_set(it: &mut TokenInterner, tokens: &[String]) -> Vec<u32> {
    let mut ids: Vec<u32> = tokens.iter().map(|t| it.intern(t)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn visitors_match_reference(s in soup()) {
        assert_matches_reference(&s);
    }

    /// `intern_tokens` is `id_set(&tokenize(..))` (interning each token,
    /// then sorting and deduplicating the ids): same id sets, and —
    /// because new tokens are interned in visit order — the same interner
    /// afterwards, so every id handed out later is the same too.
    #[test]
    fn intern_tokens_matches_intern_set_of_tokenize(
        seed in proptest::collection::vec("[a-c]{1,2}", 0..4),
        texts in proptest::collection::vec(soup(), 0..8),
    ) {
        for (name, tok, _) in tokenizers() {
            let (mut fast, mut slow) = (TokenInterner::new(), TokenInterner::new());
            for t in &seed {
                prop_assert_eq!(fast.intern(t), slow.intern(t));
            }
            for s in &texts {
                let ids = fast.intern_tokens(tok.as_ref(), s);
                prop_assert_eq!(&ids, &id_set(&mut slow, &tok.tokenize(s)), "{} on {:?}", name, s);
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
                prop_assert_eq!(ids.capacity(), ids.len(), "exact-size sets");
            }
            prop_assert_eq!(fast.len(), slow.len(), "{}", name);
            for id in 0..fast.len() as u32 {
                prop_assert_eq!(fast.resolve(id), slow.resolve(id), "{} id {}", name, id);
            }
            prop_assert_eq!(fast.intern("\u{0}next"), slow.intern("\u{0}next"));
            prop_assert_eq!(fast.len(), slow.len());
        }
    }
}
