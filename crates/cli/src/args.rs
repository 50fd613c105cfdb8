//! Tiny dependency-free flag parser for the CLI: `--key value` and
//! `--flag` pairs after a subcommand.

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// Positional arguments after the subcommand (e.g. the second file of
    /// `report --compare a.json b.json`). [`Args::check`] bounds how many a
    /// command takes.
    pub rest: Vec<String>,
    /// `--key value` pairs in command-line order; a repeated key's last
    /// value wins.
    opts: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an iterator of arguments (excluding the program name). A key
    /// in `flags`, the command's boolean flags, never takes a value, so the
    /// word after it is a positional; any other `--key` followed by a word
    /// that is not itself a `--key` takes it as its value, and is a flag
    /// otherwise. [`Args::check`] then holds both against what the command
    /// takes.
    pub fn parse<I: IntoIterator<Item = String>>(items: I, flags: &[&str]) -> Args {
        let mut out = Args::default();
        let mut it = items.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") && !flags.contains(&key) => {
                        let v = it.next().expect("peeked");
                        out.opts.push((key.to_owned(), v));
                    }
                    _ => out.flags.push(key.to_owned()),
                }
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                out.rest.push(a);
            }
        }
        out
    }

    /// Holds the command line against what its command takes: `options`
    /// (`--key value`), boolean `flags` (`--flag`) and at most
    /// `positionals` positional arguments.
    ///
    /// # Errors
    /// A message naming the first unknown `--key`, an option given without
    /// a value, or the first positional beyond `positionals`.
    pub fn check(
        &self,
        options: &[&str],
        flags: &[&str],
        positionals: usize,
    ) -> Result<(), String> {
        let command = self.command.as_deref().unwrap_or_default();
        let unknown = |key: &str| format!("{command} does not take --{key} (see `heteronoc help`)");
        for (key, _) in &self.opts {
            if !options.contains(&key.as_str()) {
                return Err(unknown(key));
            }
        }
        for key in &self.flags {
            if options.contains(&key.as_str()) {
                return Err(format!("--{key} needs a value"));
            }
            if !flags.contains(&key.as_str()) {
                return Err(unknown(key));
            }
        }
        match self.rest.get(positionals) {
            None => Ok(()),
            Some(a) => Err(format!("unexpected positional argument '{a}'")),
        }
    }

    /// Rejects leftover positionals — for a command that takes one only
    /// in some forms.
    ///
    /// # Errors
    /// Returns a message naming the first unexpected positional.
    pub fn no_rest(&self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected positional argument '{a}'")),
        }
    }

    /// String option by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed option with a default.
    ///
    /// # Errors
    /// Returns a message when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// Comma-separated list option.
    ///
    /// # Errors
    /// Returns a message when any element fails to parse.
    pub fn get_list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .map_err(|_| format!("invalid element '{x}' in --{key}"))
                })
                .collect::<Result<Vec<T>, String>>()
                .map(Some),
        }
    }

    /// Whether a boolean `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `s` as a command whose boolean flags are `json` and `once`.
    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from), &["json", "once"])
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("sweep --layout diagonal-bl --rates 0.01,0.02 --full");
        assert_eq!(a.command.as_deref(), Some("sweep"));
        assert_eq!(a.get("layout"), Some("diagonal-bl"));
        assert_eq!(a.get_list::<f64>("rates").unwrap(), Some(vec![0.01, 0.02]));
        assert!(a.flag("full"));
        assert!(!a.flag("other"));
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse("audit");
        assert_eq!(a.get_or("packets", 500u64).unwrap(), 500);
        let a = parse("x --packets nope");
        assert!(a.get_or("packets", 1u64).is_err());
    }

    #[test]
    fn positionals_collect_into_rest() {
        let a = parse("report --compare a.json b.json");
        assert_eq!(a.command.as_deref(), Some("report"));
        // `--compare a.json` pairs as key/value; the tail is positional.
        assert_eq!(a.get("compare"), Some("a.json"));
        assert_eq!(a.rest, vec!["b.json".to_owned()]);
        assert!(a.no_rest().is_err());
        assert!(parse("audit").no_rest().is_ok());
    }

    #[test]
    fn a_repeated_option_keeps_its_last_value() {
        assert_eq!(parse("run --seed 1 --seed 2").get("seed"), Some("2"));
    }

    #[test]
    fn check_names_what_the_command_does_not_take() {
        let check = |line: &str| parse(line).check(&["rates", "layout"], &["json"], 0);
        assert!(check("lint --rates 0.1 --layout baseline --json").is_ok());
        let e = check("lint --layot baseline").unwrap_err();
        assert!(e.contains("--layot") && e.contains("lint"), "{e}");
        let e = check("lint --verbose").unwrap_err();
        assert!(e.contains("--verbose"), "{e}");
        // A boolean flag takes no value: the word after it is a positional.
        let e = check("lint --json yes").unwrap_err();
        assert!(e.contains("unexpected positional argument 'yes'"), "{e}");
        let e = check("lint --rates --json").unwrap_err();
        assert!(e.contains("--rates needs a value"), "{e}");
        let e = check("lint baseline").unwrap_err();
        assert!(e.contains("'baseline'"), "{e}");
        // A command that takes one positional rejects only the second.
        let a = parse("top a.jsonl b.jsonl");
        assert!(a.check(&[], &[], 1).unwrap_err().contains("'b.jsonl'"));
    }

    #[test]
    fn a_boolean_flag_never_takes_the_next_word() {
        for line in ["top --once p.jsonl", "top p.jsonl --once"] {
            let a = parse(line);
            assert!(a.flag("once"), "{line}");
            assert_eq!(a.rest, ["p.jsonl"], "{line}");
            assert!(a.check(&["file"], &["once"], 1).is_ok(), "{line}");
        }
        let a = parse("lint --json --layout baseline");
        assert!(a.flag("json"));
        assert_eq!(a.get("layout"), Some("baseline"));
    }
}
