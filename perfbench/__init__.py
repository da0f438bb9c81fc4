"""perfbench: the two-clock benchmark (see perfbench/README.md).

``python3 -m perfbench`` from the repository root runs it.  The
package lives outside ``src/`` on purpose: it drives the program only
through its public entry points and is the one place a later change
must *not* edit to claim a gain.
"""
