"""The two refusals hetq makes, under one base class.

``ConfigError``: an input is malformed or outside its domain (an unknown
key, a value that does not parse, a combination that contradicts itself).
The message names the key, or the manifest or artifact, at fault.

``DomainError``: every input is valid, but the quantity asked for does not
exist there, such as a stationary law without a stable drift, a waiting
cost without stable drift mass, a fairness measure without idle servers,
or a scaling window outside the recorded path. The message says which.

The CLI exits 2 on the first and 3 on the second; no caller tells apart
finer kinds, so there are none.
"""


class HetqError(Exception):
    """Base class for all package errors."""


class ConfigError(HetqError):
    """Invalid configuration: unknown key, bad value, inconsistent setup."""


class DomainError(HetqError):
    """Operation requested outside its mathematical domain."""
