"""Deformation quantization engine: exact star products on polynomial
Poisson structures, Kontsevich graph weights by Monte-Carlo integration,
and the algebraic identity suites tying them together.

The modules are `polyalg`, `linsymp`, `graphs`, `operators`, `table`,
`weights`, `starprod`, `closedform`, `suites`, `record` and `cli`.  The
package defines no name: each is imported from its module, for example
`from deformq.starprod import kontsevich_star`.
"""
