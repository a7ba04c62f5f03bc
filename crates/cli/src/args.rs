//! A small dependency-free command-line argument parser.
//!
//! Supports `--flag value` and bare `--flag` options plus one positional
//! subcommand, which covers the whole CLI without pulling an argument-
//! parsing crate into the approved dependency set.

use sqda_geom::Point;
use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
    /// Keys the handler has read (for unknown-option detection).
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Errors from argument parsing and validation.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// `--flag` appeared at the end without a value and is not known to
    /// be boolean.
    MissingValue(String),
    /// A required option was not supplied.
    MissingRequired(String),
    /// An option's value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// Parse failure detail.
        detail: String,
    },
    /// A non-option positional argument after the subcommand.
    UnexpectedPositional(String),
    /// Options that no handler consumed.
    UnknownOptions(Vec<String>),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "no command given; try `sqda help`"),
            ArgsError::MissingValue(o) => write!(f, "option --{o} needs a value"),
            ArgsError::MissingRequired(o) => write!(f, "required option --{o} missing"),
            ArgsError::BadValue { option, detail } => {
                write!(f, "bad value for --{option}: {detail}")
            }
            ArgsError::UnexpectedPositional(p) => write!(f, "unexpected argument {p}"),
            ArgsError::UnknownOptions(os) => write!(f, "unknown options: --{}", os.join(", --")),
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses an argument list (without the program name).
    /// `boolean_flags` lists options that take no value.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        boolean_flags: &[&str],
    ) -> Result<Self, ArgsError> {
        let mut it = args.into_iter().peekable();
        let command = it.next().ok_or(ArgsError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(ArgsError::MissingCommand);
        }
        let mut options = HashMap::new();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if boolean_flags.contains(&name) {
                    options.insert(name.to_string(), "true".to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgsError::MissingValue(name.into()))?;
                    options.insert(name.to_string(), value);
                }
            } else {
                return Err(ArgsError::UnexpectedPositional(arg));
            }
        }
        Ok(Self {
            command,
            options,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(name.to_string());
        self.options.get(name).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, ArgsError> {
        self.get(name)
            .ok_or_else(|| ArgsError::MissingRequired(name.into()))
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgsError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e: T::Err| ArgsError::BadValue {
                option: name.into(),
                detail: e.to_string(),
            }),
        }
    }

    /// A required parsed option.
    pub fn required_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgsError>
    where
        T::Err: std::fmt::Display,
    {
        self.required(name)?
            .parse()
            .map_err(|e: T::Err| ArgsError::BadValue {
                option: name.into(),
                detail: e.to_string(),
            })
    }

    /// A boolean flag.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Errors if any provided option was never consumed by the handler.
    pub fn finish(&self) -> Result<(), ArgsError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<String> = self
            .options
            .keys()
            .filter(|k| !consumed.contains(k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgsError::UnknownOptions(unknown))
        }
    }
}

/// Largest magnitude a query coordinate may have. A squared distance from
/// such a point to any data is at most a few `1e300`, short of the `f64`
/// range; far beyond it every squared distance is infinite, all
/// candidates tie, and a k-NN "answer" would be k arbitrary objects.
pub const MAX_QUERY_COORD: f64 = 1e150;

/// `value`, the parsed `--name`, if `valid`; else a
/// [`ArgsError::BadValue`] saying what it `must` be — for values that
/// parse but mean nothing, such as a zero `--k` or a NaN `--lambda`.
pub fn checked<T: std::fmt::Display>(
    name: &str,
    value: T,
    must: &str,
    valid: impl FnOnce(&T) -> bool,
) -> Result<T, ArgsError> {
    if valid(&value) {
        return Ok(value);
    }
    Err(ArgsError::BadValue {
        option: name.into(),
        detail: format!("must be {must}, got {value}"),
    })
}

/// Parses a query point ("1.0,2.5,-3"): finite coordinates, none beyond
/// [`MAX_QUERY_COORD`] in magnitude. The error's text is what the caller
/// reports (`ERR coordinate out of range` on the wire).
pub fn parse_query_point(s: &str) -> Result<Point, Box<dyn std::error::Error + Send + Sync>> {
    let point = Point::try_new(parse_point(s)?)?;
    if point.coords().iter().any(|c| c.abs() > MAX_QUERY_COORD) {
        return Err("coordinate out of range".into());
    }
    Ok(point)
}

/// Parses a comma-separated coordinate list ("1.0,2.5,-3").
pub fn parse_point(s: &str) -> Result<Vec<f64>, ArgsError> {
    s.split(',')
        .map(|c| {
            c.trim().parse::<f64>().map_err(|e| ArgsError::BadValue {
                option: "point".into(),
                detail: format!("{c:?}: {e}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(
            strs(&["build", "--disks", "10", "--bulk", "--input", "x.csv"]),
            &["bulk"],
        )
        .unwrap();
        assert_eq!(a.command, "build");
        assert_eq!(a.get("disks"), Some("10"));
        assert!(a.flag("bulk"));
        assert_eq!(a.get_or("page-size", 4096usize).unwrap(), 4096);
        assert_eq!(a.required("input").unwrap(), "x.csv");
        a.finish().unwrap();
    }

    #[test]
    fn detects_missing_and_unknown() {
        assert_eq!(
            Args::parse(strs(&[]), &[]).unwrap_err(),
            ArgsError::MissingCommand
        );
        let a = Args::parse(strs(&["q", "--typo", "1"]), &[]).unwrap();
        assert!(matches!(a.finish(), Err(ArgsError::UnknownOptions(_))));
        let a = Args::parse(strs(&["q"]), &[]).unwrap();
        assert_eq!(
            a.required("store").unwrap_err(),
            ArgsError::MissingRequired("store".into())
        );
    }

    #[test]
    fn rejects_trailing_flag_without_value() {
        assert!(matches!(
            Args::parse(strs(&["q", "--k"]), &[]),
            Err(ArgsError::MissingValue(_))
        ));
    }

    #[test]
    fn rejects_stray_positional() {
        assert!(matches!(
            Args::parse(strs(&["q", "stray"]), &[]),
            Err(ArgsError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn bad_numeric_value() {
        let a = Args::parse(strs(&["q", "--k", "many"]), &[]).unwrap();
        assert!(matches!(
            a.get_or("k", 5usize),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn point_parsing() {
        assert_eq!(parse_point("1.0, 2.5 ,-3").unwrap(), vec![1.0, 2.5, -3.0]);
        assert!(parse_point("1.0,x").is_err());
        let at_limit = parse_query_point("1e150,-1e150").unwrap();
        assert_eq!(at_limit.coords(), &[1e150, -1e150]);
        let refused = |s: &str| parse_query_point(s).unwrap_err().to_string();
        assert_eq!(refused("0.5,1.1e150"), "coordinate out of range");
        assert_eq!(refused("-1e200,0.5"), "coordinate out of range");
        assert!(
            refused("inf,0.5").contains("finite"),
            "{}",
            refused("inf,0.5")
        );
    }
}
