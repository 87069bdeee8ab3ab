//! A minimal `--key value` / `--switch` flag parser (no external
//! dependencies, per the workspace's dependency policy).

use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    /// Every name the command declared, for the read-side check below.
    declared: Vec<String>,
}

impl Flags {
    /// Parses the arguments of `gridwatch <command>`, treating names in
    /// `switches` as boolean flags and names in any group of `values` as
    /// `--key value`. Any other `--name` is an error: a misspelt flag
    /// must not silently run the command with the default.
    ///
    /// `values` is a list of groups so a command can name its own flags
    /// next to the groups its shared helpers read.
    pub fn parse(
        command: &str,
        args: &[String],
        switches: &[&str],
        values: &[&[&str]],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            declared: switches
                .iter()
                .chain(values.iter().copied().flatten())
                .map(|name| name.to_string())
                .collect(),
            ..Flags::default()
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if switches.contains(&name) {
                flags.switches.push(name.to_string());
            } else if !values.iter().any(|group| group.contains(&name)) {
                return Err(format!("unknown flag --{name} for gridwatch {command}"));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.values.insert(name.to_string(), value.clone());
            }
        }
        Ok(flags)
    }

    /// Reading a flag the command never declared would make `parse`
    /// reject a documented flag; catch the stale list in debug builds
    /// (which is what the integration tests run).
    fn check_declared(&self, name: &str) {
        debug_assert!(
            self.declared.iter().any(|d| d == name),
            "flag --{name} is read but not declared to Flags::parse"
        );
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.check_declared(name);
        self.switches.iter().any(|s| s == name)
    }

    /// A required flag value, parsed.
    pub fn require<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// An optional flag value with a default, parsed.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// An optional flag value, parsed.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.check_declared(name);
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| format!("bad value for --{name}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(
            "test",
            &args(&["--days", "3", "--fault", "--out", "x.csv"]),
            &["fault", "verbose"],
            &[&["days"], &["out"]],
        )
        .unwrap();
        assert_eq!(f.require::<u64>("days").unwrap(), 3);
        assert!(f.has("fault"));
        assert_eq!(f.require::<String>("out").unwrap(), "x.csv");
        assert!(!f.has("verbose"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Flags::parse("test", &args(&["--days"]), &[], &[&["days"]]).unwrap_err();
        assert!(err.contains("requires a value"));
    }

    #[test]
    fn undeclared_flags_are_rejected_by_name_and_command() {
        // A misspelt value flag and a misspelt switch alike.
        for typo in [&["--dyas", "3"][..], &["--fualt"][..]] {
            let err = Flags::parse("simulate", &args(typo), &["fault"], &[&["days"]]).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{err}");
            assert!(err.ends_with("for gridwatch simulate"), "{err}");
        }
    }

    #[test]
    fn positional_arguments_rejected() {
        let err = Flags::parse("test", &args(&["oops"]), &[], &[]).unwrap_err();
        assert!(err.contains("positional"));
    }

    #[test]
    fn defaults_and_optionals() {
        let f = Flags::parse(
            "test",
            &args(&["--seed", "9"]),
            &[],
            &[&["seed", "machines", "days"]],
        )
        .unwrap();
        assert_eq!(f.get_or("machines", 4usize).unwrap(), 4);
        assert_eq!(f.get::<u64>("seed").unwrap(), Some(9));
        assert_eq!(f.get::<u64>("days").unwrap(), None);
        assert!(f.require::<u64>("days").is_err());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let f = Flags::parse("test", &args(&["--days", "three"]), &[], &[&["days"]]).unwrap();
        let err = f.require::<u64>("days").unwrap_err();
        assert!(err.contains("--days"));
    }
}
