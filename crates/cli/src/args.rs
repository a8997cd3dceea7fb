//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
}

/// A parse or validation failure, printed to stderr with usage.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv[1..]`: first token is the subcommand, the rest must
    /// be `--key value` pairs. Repeating an option is an error — silent
    /// last-write-wins would make `--seed 1 ... --seed 2` ambiguous.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut it = argv.into_iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?;
        let mut options = BTreeMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(ArgError(format!("expected --option, got '{key}'")));
            };
            let value = it
                .next()
                .ok_or_else(|| ArgError(format!("--{name} needs a value")))?;
            if options.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("--{name} given more than once")));
            }
        }
        Ok(Args { command, options })
    }

    /// Rejects any option not in `known` — a typo such as `--sed 9` would
    /// otherwise run with the default it meant to override.
    ///
    /// # Errors
    ///
    /// Fails naming the first unknown option (in name order).
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        match self.options.keys().find(|k| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some(name) => Err(ArgError(format!(
                "unknown option --{name} for '{}'",
                self.command
            ))),
        }
    }

    /// Returns a string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Returns a string option or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Returns a numeric option or a default.
    ///
    /// # Errors
    ///
    /// Fails if present but unparsable.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// Returns a required numeric option.
    ///
    /// # Errors
    ///
    /// Fails if absent or unparsable.
    pub fn require_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let v = self
            .get(key)
            .ok_or_else(|| ArgError(format!("--{key} is required")))?;
        v.parse()
            .map_err(|_| ArgError(format!("--{key} expects a number, got '{v}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("run --n 128 --protocol alg2").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.num::<usize>("n", 0).unwrap(), 128);
        assert_eq!(a.get("protocol"), Some("alg2"));
        assert_eq!(a.get_or("seed", "7"), "7");
    }

    #[test]
    fn rejects_dangling_option() {
        assert!(parse("run --n").is_err());
        assert!(parse("run n 1").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_duplicate_option() {
        let err = parse("run --seed 1 --n 8 --seed 2").unwrap_err();
        assert!(err.0.contains("--seed"), "{err}");
        assert!(err.0.contains("more than once"), "{err}");
        // Same flag twice with the same value is still ambiguous intent.
        assert!(parse("run --n 8 --n 8").is_err());
    }

    #[test]
    fn rejects_options_the_subcommand_does_not_know() {
        let a = parse("run --n 8 --sed 9 --bogus 1").unwrap();
        assert!(a.reject_unknown(&["n", "sed", "bogus"]).is_ok());
        let err = a.reject_unknown(&["n", "seed"]).unwrap_err();
        assert_eq!(err.0, "unknown option --bogus for 'run'");
    }

    #[test]
    fn require_num_enforces_presence() {
        let a = parse("run --n x").unwrap();
        assert!(a.require_num::<usize>("n").is_err());
        assert!(a.require_num::<usize>("k").is_err());
    }
}
