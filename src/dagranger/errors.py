"""The package's two error classes, one per CLI exit code.

``ConfigError`` (exit 2) is an invalid option, option combination or
configuration file; ``DataError`` (exit 3) is malformed, inconsistent or
degenerate input data. A message about a file names the file, and the line
where one line is at fault. ``cli.main`` maps any other exception to exit
code 4.
"""


class ConfigError(Exception):
    """Invalid configuration or option combination."""


class DataError(Exception):
    """Malformed, inconsistent or degenerate input data."""
