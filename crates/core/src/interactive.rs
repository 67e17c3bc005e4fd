//! Interactive labeling — the `py_labeler` analog (Table 3 lists a GUI
//! labeler among PyMatcher's packages; the console is our GUI).
//!
//! [`InteractiveLabeler`] renders the two tuples side by side and reads
//! `y`/`n` answers. I/O is injected (`BufRead` + `Write`), so the labeler
//! is fully testable and embeddable; wire it to stdin/stdout with
//! [`InteractiveLabeler::stdio`].

use std::io::{BufRead, Write};

use magellan_table::Table;

use crate::labeling::{Label, Labeler};

/// A console labeler: prints both tuples, asks `match? [y/n]`, and
/// re-prompts on anything else.
pub struct InteractiveLabeler<R: BufRead, W: Write> {
    input: R,
    output: W,
    questions: usize,
}

impl InteractiveLabeler<std::io::BufReader<std::io::Stdin>, std::io::Stdout> {
    /// A labeler wired to the process's stdin/stdout.
    pub fn stdio() -> Self {
        InteractiveLabeler::new(std::io::BufReader::new(std::io::stdin()), std::io::stdout())
    }
}

impl<R: BufRead, W: Write> InteractiveLabeler<R, W> {
    /// A labeler over arbitrary I/O (tests inject cursors here).
    pub fn new(input: R, output: W) -> Self {
        InteractiveLabeler {
            input,
            output,
            questions: 0,
        }
    }

    fn render_tuple(&mut self, tag: &str, t: &Table, row: usize) -> std::io::Result<()> {
        write!(self.output, "  {tag}: ")?;
        let parts: Vec<String> = t
            .schema()
            .names()
            .iter()
            .enumerate()
            .map(|(c, name)| format!("{name}={}", t.value(row, c).display_string()))
            .collect();
        writeln!(self.output, "{}", parts.join(" | "))
    }
}

impl<R: BufRead, W: Write> Labeler for InteractiveLabeler<R, W> {
    fn label(&mut self, a: &Table, ra: usize, b: &Table, rb: usize) -> Label {
        self.questions += 1;
        writeln!(self.output, "pair #{}:", self.questions).expect("labeler output");
        self.render_tuple("A", a, ra).expect("labeler output");
        self.render_tuple("B", b, rb).expect("labeler output");
        loop {
            write!(self.output, "match? [y/n] ").expect("labeler output");
            self.output.flush().expect("labeler output");
            let mut line = String::new();
            let n = self.input.read_line(&mut line).expect("labeler input");
            if n == 0 {
                // EOF: the conservative answer is no-match (never invent
                // positives from a closed stream).
                writeln!(self.output, "(input closed; assuming no-match)").expect("labeler output");
                return Label::NoMatch;
            }
            match line.trim().to_lowercase().as_str() {
                "y" | "yes" => return Label::Match,
                "n" | "no" => return Label::NoMatch,
                other => {
                    writeln!(self.output, "unrecognized answer `{other}`; type y or n")
                        .expect("labeler output");
                }
            }
        }
    }

    fn questions_asked(&self) -> usize {
        self.questions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_table::Dtype;
    use std::io::Cursor;

    fn tables() -> (Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("id", Dtype::Str), ("name", Dtype::Str)],
            vec![vec!["a0".into(), "dave smith".into()]],
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("id", Dtype::Str), ("name", Dtype::Str)],
            vec![vec!["b0".into(), "david smith".into()]],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn reads_yes_and_no_answers() {
        let (a, b) = tables();
        let input = Cursor::new("y\nn\n");
        let mut out = Vec::new();
        let mut labeler = InteractiveLabeler::new(input, &mut out);
        assert_eq!(labeler.label(&a, 0, &b, 0), Label::Match);
        assert_eq!(labeler.label(&a, 0, &b, 0), Label::NoMatch);
        assert_eq!(labeler.questions_asked(), 2);
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("dave smith"));
        assert!(rendered.contains("david smith"));
        assert!(rendered.contains("match? [y/n]"));
    }

    #[test]
    fn reprompts_on_garbage() {
        let (a, b) = tables();
        let input = Cursor::new("maybe\nYES\n");
        let mut out = Vec::new();
        let mut labeler = InteractiveLabeler::new(input, &mut out);
        assert_eq!(labeler.label(&a, 0, &b, 0), Label::Match);
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("unrecognized answer `maybe`"));
    }

    #[test]
    fn eof_defaults_to_no_match() {
        let (a, b) = tables();
        let input = Cursor::new("");
        let mut out = Vec::new();
        let mut labeler = InteractiveLabeler::new(input, &mut out);
        assert_eq!(labeler.label(&a, 0, &b, 0), Label::NoMatch);
        assert!(String::from_utf8(out).unwrap().contains("input closed"));
    }
}
