package sql

import (
	"strings"

	"recdb/internal/types"
)

// ExprString renders an expression in a canonical textual form. The
// planner uses it to match GROUP BY expressions against select-list and
// HAVING occurrences, so the rendering must be deterministic; it is also
// human-readable for EXPLAIN output.
func ExprString(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e)
	return sb.String()
}

func printExpr(sb *strings.Builder, e Expr) {
	switch v := e.(type) {
	case *Literal:
		if v.Value.Kind() == types.KindText {
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(v.Value.Text(), "'", "''"))
			sb.WriteByte('\'')
		} else {
			sb.WriteString(v.Value.String())
		}
	case *ColumnRef:
		if v.Qualifier != "" {
			printIdent(sb, v.Qualifier)
			sb.WriteByte('.')
		}
		printIdent(sb, v.Name)
	case *Binary:
		sb.WriteByte('(')
		printExpr(sb, v.L)
		sb.WriteByte(' ')
		sb.WriteString(v.Op.String())
		sb.WriteByte(' ')
		printExpr(sb, v.R)
		sb.WriteByte(')')
	case *Unary:
		sb.WriteString(v.Op)
		sb.WriteByte('(')
		printExpr(sb, v.X)
		sb.WriteByte(')')
	case *In:
		sb.WriteByte('(')
		printExpr(sb, v.X)
		if v.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, item := range v.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, item)
		}
		sb.WriteString("))")
	case *Call:
		printIdent(sb, v.Name)
		sb.WriteByte('(')
		for i, a := range v.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a)
		}
		sb.WriteByte(')')
	case *IsNull:
		sb.WriteByte('(')
		printExpr(sb, v.X)
		if v.Negate {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
	case *Like:
		sb.WriteByte('(')
		printExpr(sb, v.X)
		if v.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" LIKE ")
		printExpr(sb, v.Pattern)
		sb.WriteByte(')')
	case *Between:
		sb.WriteByte('(')
		printExpr(sb, v.X)
		if v.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" BETWEEN ")
		printExpr(sb, v.Lo)
		sb.WriteString(" AND ")
		printExpr(sb, v.Hi)
		sb.WriteByte(')')
	case *Star:
		sb.WriteByte('*')
	default:
		sb.WriteString("?expr?")
	}
}

// printIdent renders an identifier lower-cased, in double quotes when the
// lexer would not read it back as one bare identifier token (it came from
// a quoted identifier holding spaces, symbols or non-ASCII bytes).
func printIdent(sb *strings.Builder, name string) {
	name = strings.ToLower(name)
	bare := name != "" && isIdentStart(name[0])
	for i := 1; bare && i < len(name); i++ {
		bare = isIdentPart(name[i])
	}
	if bare {
		sb.WriteString(name)
	} else {
		sb.WriteByte('"')
		sb.WriteString(name)
		sb.WriteByte('"')
	}
}
