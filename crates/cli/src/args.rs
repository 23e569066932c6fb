//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs; rejects stray positionals. A flag
    /// followed by another flag (or by nothing) is a bare boolean switch:
    /// `--all-presets` parses as `--all-presets true`.
    pub fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{arg}' (flags are --key value)"
                ));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_string(),
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Flags { values })
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map_or(default, String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: '{v}' is not a valid number")),
        }
    }

    /// Every flag that was provided.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The flags whose keys are in `known`.
    pub fn only(&self, known: &[&str]) -> Flags {
        let values = self
            .values
            .iter()
            .filter(|(k, _)| known.contains(&k.as_str()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Flags { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Flags, String> {
        Flags::parse(&s.iter().map(|x| (*x).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_pairs() {
        let f = parse(&["--kind", "allreduce", "--kb", "32"]).unwrap();
        assert_eq!(f.require("kind").unwrap(), "allreduce");
        assert_eq!(f.num_or("kb", 0u64).unwrap(), 32);
        assert_eq!(f.get_or("backend", "P"), "P");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
        let f = parse(&["--kb", "x"]).unwrap();
        assert!(f.num_or("kb", 0u64).is_err());
    }

    #[test]
    fn only_keeps_the_known_flags() {
        let f = parse(&["--kind", "allreduce", "--ber", "0.5"]).unwrap();
        let known = f.only(&["kind", "dpus"]);
        assert_eq!(known.require("kind").unwrap(), "allreduce");
        assert!(known.require("ber").is_err());
        assert_eq!(known.keys().count(), 1);
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let f = parse(&["--all-presets", "--kind", "allreduce"]).unwrap();
        assert_eq!(f.get_or("all-presets", "false"), "true");
        assert_eq!(f.require("kind").unwrap(), "allreduce");
        let f = parse(&["--kind", "allreduce", "--json"]).unwrap();
        assert_eq!(f.get_or("json", "false"), "true");
        // The explicit form still works.
        let f = parse(&["--all-presets", "true"]).unwrap();
        assert_eq!(f.get_or("all-presets", "false"), "true");
    }
}
